"""parconv: data-, model-, and hybrid-parallel ConvNet training on a
simulated multi-device fabric, with byte-exact communication accounting and
an analytical training-time model."""

from .costmodel import (
    CostParams,
    StepTime,
    TimePrediction,
    calibrate,
    efficiency,
    load_cost_params,
    predict_total,
    save_cost_params,
    step_time,
)
from .data import Dataset, gen_synthetic, load_dataset, save_dataset
from .errors import (
    CalibrationError,
    CapacityError,
    DatasetError,
    DeadlockError,
    InfeasiblePlanError,
    ParconvError,
    PartitionError,
    ShapeError,
    ValidationError,
)
from .fabric import CommLedger, DeviceSpec, Fabric, MemoryMeter, Worker, spawn
from .kernels import (
    SgdState,
    conv2d_backward,
    conv2d_forward,
    fc_backward,
    fc_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    sgd_step,
    softmax_xent,
)
from .metrics import MetricsRecord, emit_csv, emit_svg
from .netdef import (
    ColumnizedSpec,
    NetworkSpec,
    ShapeReport,
    columnize,
    load_network,
    parse_network,
    shape_report,
    worker_footprint_bytes,
)
from .schemes import (
    CommVolume,
    ParallelPlan,
    StepResult,
    comm_volume,
    hybrid_step,
    init_dense_params,
    load_plan,
    merge_params,
    parse_plan,
    reference_step,
    setup_workers,
    split_params,
)
from .trainer import TrainConfig, TrainResult, run_equivalence, train

__version__ = "0.1.0"
