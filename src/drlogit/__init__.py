"""Doubly robust estimation for logistic partially linear models."""

from .model import (
    Basis,
    BasisTerm,
    BinaryInstrument,
    ConvergenceError,
    CovariateModelParams,
    Dataset,
    EstimationError,
    InstrumentSpec,
    LinearInstrument,
    OutcomeModelParams,
    SingularMatrixError,
    covariate_means,
    ee_dr,
    ee_instrument,
    expit,
    instrument_matrix,
    instrument_matrices,
)
from .nuisance import (
    CovariateFit,
    OutcomeFit,
    fit_covariate,
    fit_covariate_y1,
    fit_outcome_mle,
)
from .estimators import (
    EstimateReport,
    InfluencePieces,
    SolveDiagnostics,
    assemble_influence,
    closed_form_binary,
    solve_dr,
    solve_dr_y1,
)

__version__ = "0.1.0"
