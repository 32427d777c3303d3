"""emisim: probabilistic CO2-emission scenarios for data centers and AI.

Fits per-year emission models to annual driver data, runs seeded Monte
Carlo ensembles over confidence-interval perturbations of the drivers, and
reports P5/P50/P95 bands, plus growth-projection and equivalence utilities.
"""

from .core import (
    AnnualSeries,
    CorrelationMode,
    DriverRow,
    DriverTable,
    ModelKind,
    ScenarioFamily,
    ScenarioTrajectory,
    SimulationConfig,
    Unit,
    mean_scenario,
    validate_driver_table,
)
from .ensemble import (
    EnsembleResult,
    PercentileBands,
    Perturbation,
    bands,
    build_perturbations,
    ci_to_sigma,
    percentile,
    run_simulation,
    sigma_to_ci,
)
from .ingest import (
    InferenceEnergyTable,
    InferenceTask,
    ScenarioBundle,
    bundled_ai_co2_bundle,
    bundled_driver_table,
    bundled_inference_table,
    cagr_project,
    doubling_project,
    equivalent_homes,
    inference_energy,
    load_bundle,
    parse_driver_csv,
)
from .model import (
    ImpliedIntensityModel,
    LinearRegressionModel,
    fit_implied_intensity,
    fit_linear_regression,
    fit_model,
)

__version__ = "0.1.0"

__all__ = [
    "AnnualSeries",
    "CorrelationMode",
    "DriverRow",
    "DriverTable",
    "EnsembleResult",
    "ImpliedIntensityModel",
    "InferenceEnergyTable",
    "InferenceTask",
    "LinearRegressionModel",
    "ModelKind",
    "PercentileBands",
    "Perturbation",
    "ScenarioBundle",
    "ScenarioFamily",
    "ScenarioTrajectory",
    "SimulationConfig",
    "Unit",
    "bands",
    "build_perturbations",
    "bundled_ai_co2_bundle",
    "bundled_driver_table",
    "bundled_inference_table",
    "cagr_project",
    "ci_to_sigma",
    "doubling_project",
    "equivalent_homes",
    "fit_implied_intensity",
    "fit_linear_regression",
    "fit_model",
    "inference_energy",
    "load_bundle",
    "mean_scenario",
    "parse_driver_csv",
    "percentile",
    "run_simulation",
    "sigma_to_ci",
    "validate_driver_table",
    "__version__",
]
