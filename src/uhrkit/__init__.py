"""uhrkit: an executable architecture kit for high-resolution backbones.

Parse the stage-sequence notation of the U-shaped family, build exact layer
graphs (including the classic four-stream baselines), count their FLOPs and
parameters under a calibrated convention, and run a deterministic reference
forward/backward pass with gradient verification.
"""

from .analysis import (
    CalibrationResult,
    Comparison,
    ConventionMismatch,
    CostConvention,
    CostReport,
    calibrate_convention,
    compare,
    count_flops,
)
from .dsl import Direction, StageSequence, StructureError, format_structure, parse_structure
from .graph import (
    IndivisibleInput,
    InvalidSequence,
    LayerGraph,
    NetworkConfig,
    Node,
    UnknownPreset,
    WidthOverflow,
    build_hrnetv2,
    build_uhrnet,
    export_graph,
    import_graph,
    infer_shapes,
    stage_level_sets,
)
from .ops import Tensor
from .runtime import (
    GradCheckReport,
    WeightStore,
    gradcheck,
    init_weights,
    load_weights,
    save_weights,
)

__version__ = "0.1.0"
