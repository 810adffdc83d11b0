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
from .nuisance import CovariateFit, OutcomeFit
from .estimators import EstimateReport, Estimation, SolveDiagnostics

__version__ = "0.1.0"
