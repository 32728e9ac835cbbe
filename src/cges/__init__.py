"""Confidence-guided early stopping for repeated model sampling.

Bayesian aggregation of (answer, confidence) pairs over candidate answers,
an adaptive stopping controller with self-consistency baselines, confidence
estimators over token probabilities, a generative simulator for checking
concentration behaviour, and a record/replay endpoint client.
"""

from .confidence import (
    Estimator,
    TokenizedResponse,
    lns_arithmetic,
    lns_geometric,
    mars_step_weights,
    mars_stepwise,
    reward_passthrough,
)
from .controller import (
    ControllerConfig,
    Method,
    QuestionState,
    RunResult,
    Sampler,
    run,
)
from .errors import (
    CandidateCountError,
    CGESError,
    ConfigurationError,
    ContradictoryHypothesesError,
    DuplicateRecordError,
    EmptyResponseError,
    EmptySamplesError,
    InvalidSampleError,
    InvalidScoreError,
    KeyMismatchError,
    ReplayMissError,
    SamplerError,
    UnknownLabelError,
)
from .genmodel import (
    Beta,
    ConcentrationRow,
    Dirichlet,
    DriftEstimate,
    DriftMethod,
    IdealGenConfig,
    PointMass,
    PointSimplex,
    RealisticGenConfig,
    TrialTrace,
    Uniform,
    concentration_experiment,
    drift,
    sample_ideal,
    sample_realistic,
)
from .harness import (
    ComparisonReport,
    CurvePoint,
    ExperimentSpec,
    MethodRow,
    Question,
    accuracy,
    compare_methods,
    load_dataset,
    normalize_answer,
    select_operating_points,
    sweep_gamma,
)
from .llmclient import (
    INVALID_LABEL,
    AnswerFormat,
    EndpointConfig,
    RecordStore,
    SampleRecord,
    StoreMode,
    extract_answer,
    live_sampler,
    render_prompt,
    replay_sampler,
    sample_once,
)
from .posterior import (
    CandidateSet,
    RunningPosterior,
    Sample,
    llr_increment,
    log_likelihood,
    score,
)

__version__ = "0.1.0"
