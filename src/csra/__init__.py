"""One-shot compressive random access: link simulator and bound evaluators."""

from .config import (SystemConfig, ConfigError, control_window, slot_plan,
                     scenario_rng, trial_rng, read_config, write_config,
                     config_hash, desk_profile, lte_profile)
from .model import (PilotBook, FrameSignals, build_pilot_book, draw_activity,
                    draw_channels, draw_data, bits_to_symbols,
                    transmit_receive)
from .sensing import (SensingOperator, DenseOperator, RipReport,
                      build_operator, restricted_lstsq, rip_constant_exact,
                      rip_sample_complexity, export_dense_csv)
from .recovery import RecoveryResult, cosamp, bpdn, debias
from .detection import (TrialMetrics, detect_active, equalize_demodulate,
                        hard_decisions, tally, roc_sweep)
from .bounds import (FadingModel, BoundInputs, DetectionBounds, ClampedRate,
                     RateEstimate, bpdn_stability_constant,
                     margin_tail_integral, detection_error_bounds,
                     rate_lower_bound, rate_upper_bound, pilot_split_rate_gap,
                     aloha_throughput, ser_rayleigh_bpsk,
                     simulated_ergodic_rate, noise_ball_radius)
from .harness import (TrialRecord, Scenario, make_scenario, run_trial,
                      run_trials, aggregate, sweep_alpha, sweep_roc,
                      emit_bounds, emit_throughput, validate, CheckResult,
                      adjoint_mismatch)

__version__ = "0.1.0"
