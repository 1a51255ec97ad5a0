"""Write references.json: the outputs the correctness gate expects.

Run it only at a commit whose outputs are known good (they were frozen at
the seed commit); a later change is then checked against them:

    python3 bench/freeze.py

It runs every trial of every frozen pool, so it takes several minutes.
"""

import json
import sys
from pathlib import Path

import checkout


def freeze() -> dict:
    checkout.use_src()
    from csra import bounds, config, harness
    import workloads as wl

    def trials(cfg, indices):
        scenario = harness.make_scenario(cfg)
        return {str(i): harness.run_trial(cfg, i, scenario) for i in indices}

    def bound_rows(cfg, alphas):
        return harness.emit_bounds(cfg, alphas, xi=wl.BOUNDS_XI_NORM,
                                   delta_2k=wl.BOUNDS_DELTA2K,
                                   cutoff_delta=wl.BOUNDS_CUTOFF)

    refs = {"commit": checkout.git_commit()}

    desk = wl.DeskBpdn(0)
    entry = {"trials": {}, "energies": {}, "actives": {}}
    for key, cfg in desk.cfgs.items():
        recs = trials(cfg, range(desk.pool))
        entry["trials"][key] = {i: wl.trial_summary(r) for i, r in recs.items()}
        if cfg.alpha == desk.roc_alpha:
            entry["energies"] = {i: r.user_energies.tolist() for i, r in recs.items()}
            entry["actives"] = {i: r.active.tolist() for i, r in recs.items()}
        print(f"desk {key} done", file=sys.stderr, flush=True)
    entry["bounds"] = bound_rows(config.desk_profile(), desk.alphas)
    refs[desk.name] = entry

    lte = wl.LteCosamp(0)
    recs = trials(lte.cfg, range(lte.pool))
    refs[lte.name] = {
        "trials": {lte.key: {i: wl.trial_summary(r) for i, r in recs.items()}},
        "bounds": bound_rows(lte.cfg, (lte.alpha,))}
    print("lte done", file=sys.stderr, flush=True)

    toy = wl.ToyRateBounds(0)
    entry = {"trials": {}, "rates": {}}
    for seed in toy.cfg_seeds:
        cfg = wl.enumerable_cfg(seed=seed)
        recs = trials(cfg, range(toy.link_trials))
        entry["trials"][str(seed)] = {i: wl.trial_summary(r) for i, r in recs.items()}
        entry["rates"][str(seed)] = {}
        for a in toy.rate_alphas:
            est = bounds.simulated_ergodic_rate(cfg.with_(alpha=a),
                                                toy.rate_trials, wl.BOUNDS_DELTA2K)
            entry["rates"][str(seed)][str(a)] = [est.value, est.stderr, est.p_md_hat]
    entry["bounds"] = bound_rows(config.desk_profile(), wl.BOUNDS_ALPHAS)
    refs[toy.name] = entry
    return refs


def main() -> int:
    refs = freeze()
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
