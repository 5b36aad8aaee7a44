"""Zero-order optimization with spike-timing perturbations.

The package implements the derivative-free parameter update that falls out
of reward-modulated spike-timing plasticity, together with gradient-descent
and Gaussian one-point baselines, a small feedforward spiking-network
simulator, and a verification suite that checks the scheme's expectation
identities against closed forms and Gauss–Legendre quadrature. It needs
numpy only.
"""

from .core import LearningRateSchedule, RngStream
from .losses import (
    ConstantLoss,
    DataStream,
    LeastSquaresLoss,
    LinearModelLoss,
    LogReparamLoss,
    PowerLoss,
    SupervisedSample,
    finite_diff_gradient,
    generate_stream,
)
from .optimizers import (
    AnticipatedLossStrategy,
    GaussianNoiseConfig,
    OptimizerState,
    PositivityError,
    RunConfig,
    anticipated_loss,
    gd_step,
    init_state,
    one_point_step,
    run_methods,
    run_optimizer,
    stdp_multiplicative_step,
    stdp_zo_step,
)
from .perturbation import NoiseConfig, PerturbationDensity, normalizer_c
from .spiking import (
    KernelParams,
    Topology,
    interarrival_time,
    next_spike_time,
    plasticity_update,
    potential,
    run_trial,
    stdp_update,
)

__version__ = "0.1.0"
