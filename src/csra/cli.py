"""Command-line front end.

Subcommands: link-sim, roc, bounds, throughput, validate.
Exit codes: 0 ok, 1 config error, 2 validation failure, 3 I/O error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, SystemConfig, read_config, desk_profile, lte_profile
from . import harness


def _grid(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if not values:
        raise ConfigError("empty grid")
    return values


DEFAULT_ALPHAS = "0.01,0.11,0.21,0.31,0.41,0.51,0.61,0.71,0.81,0.91,1.0"
DEFAULT_XIS = ",".join(repr(float(x)) for x in np.logspace(-4, 1, 26))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="csra",
                                description="One-shot compressive random access "
                                            "simulator and bound evaluators")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=Path, help="scenario file (flat key = value)")
        sp.add_argument("--profile", choices=("desk", "lte"), default="desk")
        sp.add_argument("--solver", choices=("cosamp", "bpdn"))
        sp.add_argument("--trials", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--xi-thr", type=float, help="activity energy threshold")
        sp.add_argument("--out", type=Path)

    sp = sub.add_parser("link-sim", help="SER/detection sweep over alpha")
    common(sp)
    sp.add_argument("--alphas", type=str, default=DEFAULT_ALPHAS)
    sp.add_argument("--diagnostics", type=Path,
                    help="directory for per-trial solver traces")

    sp = sub.add_parser("roc", help="missed-detection/false-alarm sweep over xi")
    common(sp)
    sp.add_argument("--xi-grid", type=str, default=DEFAULT_XIS)
    sp.add_argument("--diagnostics", type=Path)

    sp = sub.add_parser("bounds", help="closed-form bound table over alpha")
    common(sp)
    sp.add_argument("--alphas", type=str, default=DEFAULT_ALPHAS)
    sp.add_argument("--delta2k", type=float, default=0.2)
    sp.add_argument("--xi-norm", type=float, default=0.3,
                    help="detection threshold on the channel-norm scale")
    sp.add_argument("--cutoff", type=float, default=0.0,
                    help="tail-integral cutoff; 0 reports divergence")

    sp = sub.add_parser("throughput", help="slotted-ALOHA throughput table")
    sp.add_argument("--lambdas", type=str, default="")
    sp.add_argument("--b-slots", type=int, default=8)
    sp.add_argument("--pr-rate", type=float, default=1.0)
    sp.add_argument("--rate", type=float, default=1.0)
    sp.add_argument("--out", type=Path)

    sp = sub.add_parser("validate", help="oracle-equivalence suite")
    sp.add_argument("--verbose", action="store_true")
    return p


def _load_config(args) -> SystemConfig:
    if args.config is not None:
        cfg = read_config(args.config)
    else:
        cfg = desk_profile() if args.profile == "desk" else lte_profile()
    overrides = {}
    for name in ("solver", "trials", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "xi_thr", None) is not None:
        overrides["xi_thr"] = args.xi_thr
    return cfg.with_(**overrides) if overrides else cfg


def _run_observer(directory: Path | None, per_alpha: bool):
    """(on_records, batches): the callback keeps each grid point's
    aggregate in `batches` and, given a directory, writes one solver trace
    per trial into it."""
    batches = []

    def observe(cfg, records):
        batches.append(harness.aggregate(records))
        if directory is None:
            return
        directory.mkdir(parents=True, exist_ok=True)
        prefix = f"alpha{cfg.alpha}_" if per_alpha else ""
        for rec in records:
            harness.dump_recovery_diagnostics(
                rec, directory / f"{prefix}trial{rec.trial_index:05d}.csv")
    return observe, batches


def _report_solves(command: str, batches: list[dict]) -> None:
    """One stderr line on the run's solves and on where its trial time
    went, stage by stage; the CSV stays as it is."""
    trials = sum(b["trials"] for b in batches)
    mean = (sum(b["iterations_mean"] * b["trials"] for b in batches) / trials
            if trials else float("nan"))
    split = " + ".join(
        f"{stage} {sum(b['stage_seconds'][stage] for b in batches):.2f}"
        for stage in harness.STAGES)
    print(f"{command}: {trials} trials, "
          f"{sum(b['nonconverged'] for b in batches)} non-converged solves, "
          f"iterations mean {mean:.1f} max "
          f"{max((b['iterations_max'] for b in batches), default=0)}, "
          f"{split} = {sum(b['elapsed'] for b in batches):.2f} s in trials",
          file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "validate":
        checks = harness.validate(verbose=True)
        return 0 if all(c.passed for c in checks) else 2

    if args.command == "throughput":
        lambdas = (_grid(args.lambdas) if args.lambdas
                   else tuple(np.linspace(0.0, 5.0 * args.b_slots, 101)))
        out = args.out or Path("throughput.csv")
        harness.emit_throughput(lambdas, args.b_slots, args.pr_rate, args.rate,
                                out_path=out)
        print(f"wrote {out}")
        return 0

    cfg = _load_config(args)
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")

    if args.command == "link-sim":
        spec = harness.SweepSpec(_grid(args.alphas), trials=cfg.trials)
        out = args.out or Path("link_sim.csv")
        observe, batches = _run_observer(args.diagnostics, True)
        harness.sweep_alpha(cfg, spec, out_path=out, threads=args.threads,
                            on_records=observe)
        _report_solves(args.command, batches)
        print(f"wrote {out}")
        return 0

    if args.command == "roc":
        spec = harness.SweepSpec(_grid(args.xi_grid), trials=cfg.trials)
        out = args.out or Path("roc.csv")
        observe, batches = _run_observer(args.diagnostics, False)
        harness.sweep_roc(cfg, spec, out_path=out, threads=args.threads,
                          on_records=observe)
        _report_solves(args.command, batches)
        print(f"wrote {out}")
        return 0

    if args.command == "bounds":
        out = args.out or Path("bounds.csv")
        try:    # the bound evaluators own the domains of these flags
            rows = harness.emit_bounds(cfg, _grid(args.alphas), xi=args.xi_norm,
                                       delta_2k=args.delta2k,
                                       cutoff_delta=args.cutoff, out_path=out)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        pmd = harness.BOUNDS_HEADER.index("pmd_bound")
        if all(row[pmd] == 1.0 for row in rows):
            print(f"note: every pmd_bound is vacuous (clamped to 1) at "
                  f"xi_norm = {args.xi_norm}, cutoff = {args.cutoff} "
                  f"(k1 = {cfg.k1}): the margin tail integral diverges or its "
                  f"noise term exceeds 1", file=sys.stderr)
        print(f"wrote {out}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
