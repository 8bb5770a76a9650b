"""Command line front end: bands, floquet, synth, verify, oscillatory.

Every subcommand reads one JSON config (only --out overrides a key, the
output directory) and writes its artifacts there; verify works from a
manifest, and checks a config, if given, against it.  Each returns a
process exit code: 0 all checks pass, 1 a check failed (stderr names the
error's class), 2 usage/config error, 3 resonance obstruction; a command
creates its output directory only once it has something to write there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._util import both_sides, csv_blocks, write_json
from .config import RunConfig
from .errors import (
    DiracEmbedError,
    HypothesisViolated,
    ResonantFrequency,
    ResonantPair,
    ScanTooCoarse,
)
from .floquet import (
    band_scan,
    derived_data,
    floquet_solution,
    write_period_csv,
)
from .synth import (
    ENVELOPE_TOL,
    EmbeddingTarget,
    assemble,
    check_nonresonance,
    envelope_excess,
    read_manifest,
    rebuild_potential,
    schedule,
    write_manifest,
    write_potential_csv,
)
from .verify import (
    PRODUCT_RATIO_MAX,
    l2_tail_estimate,
    decay_check,
    oscillatory_check_41,
    oscillatory_check_42,
    stability_check,
    track_targets,
)

__all__ = ["main", "cmd_bands", "cmd_floquet", "cmd_synth", "cmd_verify",
           "cmd_oscillatory"]

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_RESONANCE = 3


def cmd_bands(args, cfg: RunConfig, out: str) -> int:
    try:
        bs = band_scan(cfg.p, cfg.q, (cfg.scan_lo, cfg.scan_hi),
                       cfg.scan_resolution)
    except ScanTooCoarse as exc:
        raise ScanTooCoarse(
            f"{exc}; rerun with a smaller scan_resolution") from exc
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "bands.csv"), "w", encoding="utf-8") as fh:
        fh.write("lambda,trace,k\n")
        # a scalar arccos per row, whatever bits numpy's vector loop gives
        k = [np.arccos(tr / 2.0) if abs(tr) <= 2.0 else np.nan for tr in bs.traces]
        fh.writelines(csv_blocks((bs.lambdas, bs.traces, k)))
    doc = {
        "scan_range": [cfg.scan_lo, cfg.scan_hi],
        "resolution": cfg.scan_resolution,
        "edges": [float(e) for e in bs.edges],
        "bands": [{"lo": b.lo, "hi": b.hi, "k_direction": b.k_direction}
                  for b in bs.bands],
    }
    write_json(os.path.join(out, "band_edges.json"), doc)
    print(f"bands: {len(bs.bands)} band(s), {len(bs.edges)} interior "
          f"edge(s) in [{cfg.scan_lo:g}, {cfg.scan_hi:g}]")
    return EXIT_OK


def cmd_floquet(args, cfg: RunConfig, out: str) -> int:
    sol = floquet_solution(cfg.p, cfg.q, args.lam)
    data = derived_data(sol)
    path = os.path.join(out, "floquet.csv")
    os.makedirs(out, exist_ok=True)
    write_period_csv(data, path)
    print(f"floquet: lam={args.lam:g} k={sol.k:.12g} omega={sol.omega:.12g} "
          f"-> {path}")
    return EXIT_OK


def cmd_synth(args, cfg: RunConfig, out: str) -> int:
    targets = check_nonresonance(cfg.lambdas, cfg.p, cfg.q, cfg.margin)
    sched = schedule(targets, mode=cfg.mode, a0=cfg.a0, x_max=cfg.x_max,
                     b=cfg.b, h=cfg.envelope())
    pot = assemble(sched)
    if cfg.mode == "growing":
        pot.metadata["h_name"] = cfg.h_name  # verify's envelope
    os.makedirs(out, exist_ok=True)
    write_potential_csv(pot, os.path.join(out, "potential.csv"))
    write_manifest(pot, os.path.join(out, "manifest.json"), cfg.p, cfg.q)
    T, N = pot.metadata["T"], pot.metadata["N"]
    print(f"synth: {len(pot.pieces)} pieces, {len(T) - 1} cycle "
          f"breakpoints to T={T[-1]:.6g}, N_final={N[-1]}")
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig | None, out: str) -> int:
    manifest = read_manifest(args.manifest)
    targets, h = manifest.targets, manifest.h
    if cfg is not None:  # a config must be the manifest's run
        run = {"p": manifest.p, "q": manifest.q,
               "lambdas": [t.lam for t in targets],
               **{key: manifest.metadata[key]
                  for key in ("mode", "a0", "x_max", "b")}}
        if h is not None:
            run["h_name"] = manifest.metadata["h_name"]
        for key, val in run.items():
            if getattr(cfg, key) != val:
                raise ValueError(f"{key}: the config's {getattr(cfg, key)!r} "
                                 f"is not the manifest's {val!r}")

    def record(check_name, fn, **context):
        try:
            rep = fn()
        except DiracEmbedError as exc:
            return {"name": check_name, "passed": False, "error": str(exc),
                    **context}
        d = rep.to_dict()
        d["passed"] = bool(d.get("verdict", True))
        return d

    def one_side(side):
        # Each report comes with its place in the order one process would
        # check in: per target the checks on its first own piece, then per
        # target the tail; the plus side first (-side).
        pot = rebuild_potential(manifest, side)
        reports = []
        for i, target in enumerate(targets):
            first = min((pc for pc in pot.pieces if pc.lam == target.lam),
                        key=lambda pc: pc.a)
            reports.append(((0, i, -side), record(
                "decay", lambda t=target, pc=first: decay_check(t, pc),
                **{"lambda": target.lam, "side": side})))
            for bystander in targets[:i] + targets[i + 1:]:
                reports.append(((0, i, -side), record(
                    "stability",
                    lambda t=bystander, pc=first: stability_check(t, pc),
                    **{"lambda_piece": target.lam,
                       "lambda_bystander": bystander.lam, "side": side})))
        for (i, _), track in track_targets(pot, targets).items():
            reports.append(((1, i, -side), record(
                "l2-tail", lambda tr=track: l2_tail_estimate(tr),
                target=track.target_index, side=track.side)))
        return reports, (None if h is None else
                         envelope_excess(pot.x_grid, pot.V_grid, h)[0])

    (plus, plus_excess), (minus, minus_excess) = both_sides(one_side)
    reports = [d for _, d in sorted(plus + minus, key=lambda kd: kd[0])]
    if h is not None:
        excess = max(plus_excess, minus_excess)
        ok = excess <= ENVELOPE_TOL
        reports.append({"name": "envelope", "max_excess": excess,
                        "verdict": ok, "passed": ok})

    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "reports.json"), reports)
    n = len(reports)
    failures = sum(not d["passed"] for d in reports)
    print(f"verify: {n - failures}/{n} checks passed")
    return EXIT_CHECK if failures else EXIT_OK


def cmd_oscillatory(args, cfg: RunConfig | None, out: str) -> int:
    x0_list = args.x0 or [1e2, 1e3, 1e4]
    if args.lam is not None and cfg is None:
        raise ValueError("lam: --lam needs --config")
    if args.lam is None and (args.beta1 is None or args.beta2 is None):
        raise ValueError("beta1/beta2: required unless --lam is given")
    if args.lam is not None:
        target = EmbeddingTarget.at(cfg.p, cfg.q, args.lam)
        chk = oscillatory_check_42(
            target, target.data.Psi_f, args.a, x0_list, args.x_max,
            enforce_nonresonance=not args.allow_resonant)
    else:
        try:
            chk = oscillatory_check_41(
                args.a, args.beta1, args.beta2, x0_list, args.x_max)
        except HypothesisViolated as exc:  # it names the flag out of range
            raise ValueError(str(exc)) from None
    ratio = chk.max_product_ratio
    ok = bool(ratio <= PRODUCT_RATIO_MAX)
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "oscillatory.json"),
               [dict(chk.to_dict(), max_product_ratio=ratio, passed=ok)])
    print(f"oscillatory: max product ratio {ratio:.4g} "
          f"({'pass' if ok else 'FAIL'} at {PRODUCT_RATIO_MAX:g})")
    return EXIT_OK if ok else EXIT_CHECK


def finite_float(text: str) -> float:
    """Every float flag's type: a NaN or infinite value is a usage error
    naming the flag (exit 2), as it is for a config's numbers."""
    val = float(text)
    if not np.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return val


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix of a flag that stays must not
    # stand in for it, or a removed flag (--c) comes back as --config.
    parser = argparse.ArgumentParser(
        prog="diracembed", allow_abbrev=False,
        description="Spectral toolkit for periodic Dirac operators: band "
                    "structure, Floquet frames, embedded-eigenvalue "
                    "potential synthesis, and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text, config_required=True):
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.set_defaults(run=run)
        sp.add_argument("--config", required=config_required, metavar="PATH",
                        help="JSON run configuration")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory, in place of the config's "
                             "out_dir")
        return sp

    command("bands", cmd_bands, "scan the band structure")
    sp = command("floquet", cmd_floquet, "export one Floquet frame")
    sp.add_argument("--lam", type=finite_float, required=True,
                    help="energy inside a band")
    command("synth", cmd_synth, "synthesize the embedding potential")
    sp = command("verify", cmd_verify, "re-run all checks from a manifest",
                 config_required=False)
    sp.add_argument("--manifest", required=True, metavar="PATH")
    sp = command("oscillatory", cmd_oscillatory,
                 "sup-scan the oscillatory integral bounds",
                 config_required=False)
    sp.add_argument("--lam", type=finite_float, default=None)
    sp.add_argument("--a", type=finite_float, required=True,
                    help="phase frequency")
    sp.add_argument("--beta1", type=finite_float, default=None)
    sp.add_argument("--beta2", type=finite_float, default=None)
    sp.add_argument("--x0", action="append", type=finite_float, default=None)
    sp.add_argument("--x-max", type=finite_float, default=1e6)
    sp.add_argument("--allow-resonant", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # A config is loaded, and so validated, whenever it is given, and its
        # out_dir is the default output directory; without one it is the
        # manifest's directory for verify, the working one for oscillatory.
        cfg = RunConfig.load(args.config) if args.config is not None else None
        default = os.path.dirname(getattr(args, "manifest", "")) or "."
        out = args.out or (cfg.out_dir if cfg is not None else default)
        return args.run(args, cfg, out)
    except (ResonantPair, ResonantFrequency) as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiracEmbedError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
