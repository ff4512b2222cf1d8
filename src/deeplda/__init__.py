"""Two-phase deep discriminant classifier with a hand-rolled training engine.

The package trains a wide sigmoid network on tabular features, then a
small relu head on that network's scalar outputs, entirely on top of a
deterministic counter-based random stream. It ships the data pipeline
(CSV cleaning, imputation, standardization, stratified splitting), the
evaluation metrics and curve files, a classical Fisher discriminant
baseline, and a command-line tool tying them into reproducible runs.
"""

from types import ModuleType as _ModuleType

from .data import (
    DataSchema,
    Dataset,
    RawTable,
    Standardizer,
    apply_standardizer,
    clean,
    fit_standardizer,
    load_csv,
    load_schema,
    load_split,
    stratified_split,
)
from .exceptions import (
    ContractError,
    DataError,
    DeepLdaError,
    NumericalError,
    ShapeError,
)
from .fisher import LdaModel, fisher_ratio, fit_fisher, predict_lda
from .metrics import (
    ConfusionMatrix,
    EpochRecord,
    TrainingHistory,
    accuracy,
    confusion,
    f_score,
    format_report,
    history_to_csv,
    precision,
    recall,
    report_dict,
)
from .network import (
    Gradients,
    LayerSpec,
    Network,
    NetworkSpec,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    dense,
    dropout,
    fit,
    forward,
    init_network,
    l2_penalty,
    layer_param_counts,
    load_network,
    param_count,
    predict,
    save_network,
)
from .pipeline import (
    TwoPhaseModel,
    build_phase1_spec,
    build_phase2_spec,
    evaluate_two_phase,
    load_two_phase,
    predict_two_phase,
    save_two_phase,
    train_two_phase,
    transform_phase1,
)
from .rng import SplitMix64

__version__ = "0.1.0"

# Every public name imported above, without the submodules those imports bind.
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))] + ["__version__"]
