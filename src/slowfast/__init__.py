"""Simulation and statistical verification toolkit for slow-fast SDEs driven
by Levy noise: coupled simulation, averaged-equation construction, random
slow manifolds by fixed-point iteration, the normal-deviation limit SDE, and
Monte-Carlo verification of the convergence claims against linear oracles."""

from .model import (DriftFn, JumpSpec, SizeDist, SlowFastModel, parse_drift,
                    estimate_lipschitz, validate_model)
from .noise import IncrementStream, sample_increments, substream
from .integrator import DivergedError, Trajectory, simulate_slow_fast
from .averaging import (AveragedModel, MixingReport, RateReport,
                        build_averaged, estimate_fbar, mixing_diagnostic,
                        simulate_averaged, strong_error_experiment)
from .manifold import (ManifoldSolution, asymptotic_manifold_h0,
                       contraction_factors, lyapunov_perron_solve,
                       sample_stationary_paths, tracking_check)
from .deviation import (DeviationModel, KernelEstimate, autocovariance_kernel,
                        build_deviation_model, diffusion_matrix, fbar_derivative,
                        matrix_sqrt_psd, residual_theta2, simulate_deviation,
                        simulate_truncated_deviation, weak_limit_report)
from .harness import (Ensemble, TwoSampleReport, fit_loglog_rate,
                      run_ensemble, two_sample_compare)
from .benchmarks import linear_benchmark, tanh_benchmark

__version__ = "0.1.0"
