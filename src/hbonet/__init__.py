"""Harmonious-bottleneck CNN micro-framework.

NCHW float64 tensors, oracle-verified neural ops, the harmonious bottleneck
and inverted residual blocks, a declarative network builder with an analytic
Multiply-Adds ledger, reverse-mode autodiff with finite-difference
verification, and a toy training harness.
"""
import os as _os

# Propagate the package thread-count knob to the BLAS pools before numpy
# initializes them. Explicit user settings win.
if "HBONET_NUM_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["HBONET_NUM_THREADS"])

from .tensor import (
    ConvKernel,
    DimensionError,
    MacCounter,
    Tensor,
    UnsupportedKernelError,
    conv2d_oracle,
    load_tensor,
    save_tensor,
    tensor_equal_within,
)
from .ops import (
    BatchNormParams,
    avgpool,
    batchnorm,
    bilinear_upsample,
    concat_channels,
    conv2d,
    depthwise_conv,
    eltadd,
    pointwise_conv,
    relu6,
    take_first_channels,
)
from .autodiff import Node, Tape, TapeConsumedError, backward, finite_diff_check
from .blocks import (
    BlockConfig,
    BlockKind,
    ConfigError,
    block_layer_table,
    harmonious_bottleneck_forward,
    init_block_params,
    inverted_residual_forward,
    make_divisible,
)
from .network import (
    Network,
    NetworkSpec,
    StageSpec,
    build_network,
    default_divisor,
    forward,
    hbonet_spec,
    mobilenetv2_spec,
    network_spec,
    trace_shapes,
)
from .complexity import CostLedger, cost_hbo, cost_separable, ledger
from .gradcheck import run_gradient_checks
from .train import (
    OptimizerState,
    ToyConfig,
    ToyConfigError,
    TrainingError,
    cosine_lr,
    label_smooth_ce,
    make_synthetic_dataset,
    sgd_step,
    train_toy,
)

__version__ = "0.1.0"
