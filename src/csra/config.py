"""Scenario configuration: parameters, derived frequency plan, RNG streams.

One scenario is a single "big" OFDM symbol of n subcarriers. A contiguous or
random control window of m subcarriers carries all users' pilots; the
remaining subcarriers are divided into b_slots frequency slots for data.
"""

from dataclasses import dataclass, fields, replace
import hashlib
from operator import attrgetter, index

import numpy as np

MODULATIONS = {"bpsk": 1, "qpsk": 2}
WINDOW_MODES = ("contiguous", "random")
SENSING_MODES = ("plain", "randomized")
SOLVERS = ("cosamp", "bpdn")

# spawn_key tags for the per-scenario / per-trial RNG streams
_SCENARIO_TAG = 0
_TRIAL_TAG = 1
PILOT_STREAM = 0
MULTIPLIER_STREAM = 1
WINDOW_STREAM = 2


class ConfigError(ValueError):
    """Invalid scenario parameters or scenario file."""


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters. Frozen so a config can key caches and hashes."""

    n: int = 2048               # FFT size (subcarriers)
    m: int = 256                # control window size |B|
    window_mode: str = "contiguous"
    t_cp: int = 128             # cyclic prefix length in samples
    u_max: int = 50             # maximum user count U
    k1: int = 4                 # per-user channel sparsity (taps)
    k2: int = 10                # number of active users
    b_slots: int = 50           # number of data frequency slots
    alpha: float = 0.5          # pilot power fraction
    snr_db: float = 20.0        # overall SNR = 1/sigma^2
    modulation: str = "bpsk"
    bits_per_user: int = 32
    seed: int = 12345
    trials: int = 200
    sensing_mode: str = "plain"

    xi_thr: float = 0.05        # activity decision: ||h_hat_u||^2 > xi_thr
    solver: str = "cosamp"

    def __post_init__(self):
        # each number to its declared type, so that equal configs are equal
        # and hash equal: 1 and np.int64(1) become 1, 1 becomes 1.0 where a
        # float is declared, and -0.0 becomes 0.0 (`or` maps it, being
        # false); a non-integer for an int field is an error
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                if f.type is int:
                    value = index(value)
                elif f.type is float:
                    value = float(value) or 0.0
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{f.name} must be {f.type.__name__}, "
                                  f"got {value!r}") from exc
            object.__setattr__(self, f.name, value)
        self.validate()

    @property
    def sigma2(self) -> float:
        """Per-subcarrier noise variance, from overall SNR = 1/sigma^2."""
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def bits_per_symbol(self) -> int:
        return MODULATIONS[self.modulation]

    @property
    def symbols_per_user(self) -> int:
        return self.bits_per_user // self.bits_per_symbol

    @property
    def slot_size(self) -> int:
        return (self.n - self.m) // self.b_slots

    def validate(self):
        c = self
        checks = [
            (c.n >= 1, "n must be >= 1"),
            (1 <= c.m <= c.n, "need 1 <= m <= n"),
            (1 <= c.t_cp <= c.n, "need 1 <= t_cp <= n"),
            (1 <= c.k1 <= c.t_cp, "need 1 <= k1 <= t_cp"),
            (0 <= c.k2 <= c.u_max, "need 0 <= k2 <= u_max"),
            (c.u_max >= 1, "u_max must be >= 1"),
            (0.0 <= c.alpha <= 1.0, "alpha must be in [0, 1]"),
            (not np.isnan(c.snr_db), "snr_db must not be NaN"),
            (c.b_slots >= 1, "b_slots must be >= 1"),
            (c.window_mode in WINDOW_MODES, f"window_mode not in {WINDOW_MODES}"),
            (c.sensing_mode in SENSING_MODES, f"sensing_mode not in {SENSING_MODES}"),
            (c.modulation in MODULATIONS, f"modulation not in {tuple(MODULATIONS)}"),
            (c.solver in SOLVERS, f"solver not in {SOLVERS}"),
            (c.bits_per_user >= 1, "bits_per_user must be >= 1"),
            (c.xi_thr >= 0.0, "xi_thr must be >= 0"),
            (c.trials >= 1, "trials must be >= 1"),
            (c.seed >= 0, "seed must be a nonnegative integer"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        if c.bits_per_user % MODULATIONS[c.modulation] != 0:
            raise ConfigError("bits_per_user must be a multiple of bits per symbol")
        if c.symbols_per_user > c.slot_size:
            raise ConfigError(
                f"payload of {c.symbols_per_user} symbols does not fit a slot of "
                f"{c.slot_size} subcarriers ((n-m)/b_slots)")

    def with_(self, **kw) -> "SystemConfig":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# RNG streams. One master seed; scenario-level draws (pilots, window,
# multipliers) and per-trial draws come from disjoint SeedSequence spawn keys,
# so trials are independent and safe to run in parallel in any order.
# ---------------------------------------------------------------------------

def scenario_rng(cfg: SystemConfig, stream: int) -> np.random.Generator:
    """Generator for scenario-level randomness (fixed across trials)."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(_SCENARIO_TAG, stream)))


def trial_rng(cfg: SystemConfig, trial_index: int) -> np.random.Generator:
    """Independent per-trial generator, reproducible from (seed, trial_index)."""
    if trial_index < 0:
        raise ValueError("trial_index must be >= 0")
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(_TRIAL_TAG, trial_index)))


# ---------------------------------------------------------------------------
# Frequency plan
# ---------------------------------------------------------------------------

def control_window(cfg: SystemConfig) -> np.ndarray:
    """Ordered control-subcarrier index set B (length m).

    contiguous: centered block, mimicking a PRACH region at band center.
    random: uniform m-subset of [0, n), drawn from the scenario window stream.
    """
    if cfg.window_mode == "contiguous":
        start = (cfg.n - cfg.m) // 2
        return np.arange(start, start + cfg.m)
    rng = scenario_rng(cfg, WINDOW_STREAM)
    return np.sort(rng.choice(cfg.n, size=cfg.m, replace=False))


@dataclass(frozen=True)
class SlotPlan:
    """Data-slot geometry: which subcarriers carry which user's payload.

    Slots are disjoint contiguous chunks of the non-control subcarriers;
    user u maps to slot (u mod b_slots) and occupies the first
    symbols_per_user subcarriers of that slot. With b_slots >= u_max every
    user has a dedicated slot; smaller b_slots makes simultaneous
    transmissions in a shared slot collide, which this simulator does not
    resolve (collision accounting lives in the throughput formula).
    """

    n: int
    u_max: int
    symbols_per_user: int
    slot_starts: np.ndarray          # index into data_indices, per slot
    data_indices: np.ndarray         # all non-control subcarriers, sorted

    def slot_of_user(self, u: int) -> int:
        return u % len(self.slot_starts)

    def user_subcarriers(self, u: int) -> np.ndarray:
        """Subcarrier indices carrying user u's payload symbols (in order)."""
        s = self.slot_starts[self.slot_of_user(u)]
        return self.data_indices[s:s + self.symbols_per_user]


def slot_plan(cfg: SystemConfig, window: np.ndarray | None = None) -> SlotPlan:
    if window is None:
        window = control_window(cfg)
    in_window = np.zeros(cfg.n, dtype=bool)
    in_window[window] = True
    data_indices = np.flatnonzero(~in_window)
    size = len(data_indices) // cfg.b_slots
    starts = np.arange(cfg.b_slots) * size
    return SlotPlan(n=cfg.n, u_max=cfg.u_max, symbols_per_user=cfg.symbols_per_user,
                    slot_starts=starts, data_indices=data_indices)


# ---------------------------------------------------------------------------
# Scenario file I/O: flat "key = value" lines, '#' comments, one key per
# SystemConfig field.
# ---------------------------------------------------------------------------

# key -> value type (int, float or str) of the scenario file. Anything else
# is an error.
FILE_KEYS = {f.name: f.type for f in fields(SystemConfig)}


def read_config(path) -> SystemConfig:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = (s.strip() for s in line.partition("="))
            if key not in FILE_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val
    kwargs = {}
    for key, val in values.items():
        kind = FILE_KEYS[key]
        try:
            kwargs[key] = val.lower() if kind is str else kind(val)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {val!r}") from exc
    try:
        return SystemConfig(**kwargs)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def write_config(cfg: SystemConfig, path) -> None:
    with open(path, "w") as f:
        for key in FILE_KEYS:
            f.write(f"{key} = {getattr(cfg, key)}\n")


# The hashed text: "key=repr(value)" for every field, joined by ";". A
# retired field, always True, keeps its term so that every published
# cfg_hash cell and the frozen benchmark references stay valid.
_HASH_TEXT = ";".join(f"{key}=%r" for key in FILE_KEYS) + ";include_missed_in_ser=True"
_HASH_VALUES = attrgetter(*FILE_KEYS)


def config_hash(cfg: SystemConfig) -> str:
    """Short stable hash over every field that can influence results."""
    return hashlib.sha256((_HASH_TEXT % _HASH_VALUES(cfg)).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def desk_profile(**overrides) -> SystemConfig:
    """Default desk-scale scenario: finishes a full alpha sweep in minutes
    while keeping the overloaded-control regime (m << u_max * t_cp) and the
    qualitative SER-vs-alpha shape (too little pilot power starves the
    ell1 estimate, too much starves the data).

    The window is a uniform-random subset: that is the sampling model the
    recovery guarantees assume, and a contiguous window at this m/n makes
    neighboring-delay dictionary columns nearly collinear, which defeats
    on-grid sparse recovery regardless of solver. The contiguous mode stays
    available via window_mode for PRACH-shaped experiments. The solver is
    basis pursuit denoising because the low-alpha breakdown is a noise-
    scaled shrinkage effect that an oracle-sparsity greedy solver does not
    reproduce."""
    base = dict(n=1024, m=256, window_mode="random", t_cp=128, u_max=50,
                k1=5, k2=10, b_slots=50, alpha=0.5, snr_db=20.0,
                modulation="bpsk", bits_per_user=14, seed=12345, trials=200,
                sensing_mode="plain", solver="bpdn", xi_thr=0.08)
    base.update(overrides)
    return SystemConfig(**base)


def lte_profile(**overrides) -> SystemConfig:
    """LTE-A-like scenario (839-subcarrier control window in a 24576-point
    symbol, 100 users, 6-tap channels under a 300-sample delay spread).
    Opt-in: a full sweep takes hours, not minutes."""
    base = dict(n=24576, m=839, window_mode="random", t_cp=300, u_max=100,
                k1=6, k2=10, b_slots=100, alpha=0.5, snr_db=20.0,
                modulation="bpsk", bits_per_user=200, seed=12345, trials=200,
                sensing_mode="plain", solver="cosamp", xi_thr=0.08)
    base.update(overrides)
    return SystemConfig(**base)
