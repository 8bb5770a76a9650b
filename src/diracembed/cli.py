"""Command line front end: bands, floquet, synth, verify, oscillatory.

Every subcommand reads one JSON config (only --out overrides a key, the
output directory), writes its artifacts there, and returns a
process exit code: 0 all checks pass, 1 a check failed, 2 usage/config
error, 3 resonance obstruction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._util import write_json, write_rows
from .config import ENVELOPES, RunConfig
from .errors import (
    DiracEmbedError,
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
    write_reports_json,
    write_summary_csv,
)

__all__ = ["main", "cmd_bands", "cmd_floquet", "cmd_synth", "cmd_verify",
           "cmd_oscillatory"]

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_RESONANCE = 3


def _add_config_flags(sp: argparse.ArgumentParser, need_lam: bool = False):
    sp.add_argument("--config", required=True, metavar="PATH",
                    help="JSON run configuration")
    if need_lam:
        sp.add_argument("--lam", type=float, required=True,
                        help="energy inside a band")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="output directory, in place of the config's out_dir")


def _out_dir(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def cmd_bands(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    try:
        bs = band_scan(cfg.p, cfg.q, (cfg.scan_lo, cfg.scan_hi),
                       cfg.scan_resolution)
    except ScanTooCoarse as exc:
        raise ScanTooCoarse(
            f"{exc}; rerun with a smaller scan_resolution") from exc
    with open(os.path.join(out, "bands.csv"), "w", encoding="utf-8") as fh:
        fh.write("lambda,trace,k\n")
        # a scalar arccos per row, whatever bits numpy's vector loop gives
        k = [np.arccos(tr / 2.0) if abs(tr) <= 2.0 else np.nan for tr in bs.traces]
        write_rows(fh, (bs.lambdas, bs.traces, k))
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


def cmd_floquet(cfg: RunConfig, lam: float) -> int:
    out = _out_dir(cfg)
    sol = floquet_solution(cfg.p, cfg.q, lam)
    data = derived_data(sol)
    path = os.path.join(out, "floquet.csv")
    write_period_csv(data, path)
    print(f"floquet: lam={lam:g} k={sol.k:.12g} omega={sol.omega:.12g} "
          f"-> {path}")
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    targets = check_nonresonance(cfg.lambdas, cfg.p, cfg.q, cfg.margin)
    sched = schedule(targets, mode=cfg.mode, a0=cfg.a0, x_max=cfg.x_max,
                     b=cfg.b, h=cfg.envelope())
    pot = assemble(sched)
    if cfg.mode == "growing":
        pot.metadata["h_name"] = cfg.h_name  # verify's envelope
    write_potential_csv(pot, os.path.join(out, "potential.csv"))
    write_manifest(pot, os.path.join(out, "manifest.json"), cfg.p, cfg.q)
    print(f"synth: {len(pot.pieces)} pieces, {len(sched.T) - 1} cycle "
          f"breakpoints to T={sched.T[-1]:.6g}, N_final={sched.N[-1]}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, manifest_path: str) -> int:
    out = _out_dir(cfg)
    pot = rebuild_potential(manifest_path)
    targets = pot.targets

    reports: list[dict] = []

    def record(check_name, fn, **context):
        try:
            rep = fn()
        except DiracEmbedError as exc:
            d = {"name": check_name, "passed": False, "error": str(exc),
                 **context}
        else:
            d = rep.to_dict()
            d["passed"] = bool(d.get("verdict", True))
        reports.append(d)

    for i, target in enumerate(targets):
        for side in (1, -1):
            first = min((pc for pc in pot.pieces
                         if pc.side == side and pc.lam == target.lam),
                        key=lambda pc: pc.a, default=None)
            if first is None:
                continue
            record("decay", lambda t=target, pc=first: decay_check(t, pc),
                   **{"lambda": target.lam, "side": side})
            for j, bystander in enumerate(targets):
                if j == i:
                    continue
                record("stability",
                       lambda t=bystander, pc=first: stability_check(t, pc),
                       **{"lambda_piece": target.lam,
                          "lambda_bystander": bystander.lam, "side": side})

    tracks = track_targets(pot, targets)
    for track in tracks.values():
        record("l2-tail", lambda tr=track: l2_tail_estimate(tr),
               target=track.target_index, side=track.side)

    if pot.metadata.get("mode") == "growing":
        h_name = pot.metadata.get("h_name")
        if not isinstance(h_name, str) or h_name not in ENVELOPES:
            raise ValueError(f"h_name: {h_name!r} in a growing-mode manifest "
                             f"is not one of {sorted(ENVELOPES)}")
        h = ENVELOPES[h_name]
        excess, _ = envelope_excess(pot.x_grid, pot.V_grid, h)
        ok = excess <= ENVELOPE_TOL
        reports.append({"name": "envelope", "max_excess": excess,
                        "verdict": ok, "passed": ok})

    write_reports_json(reports, os.path.join(out, "reports.json"))
    write_summary_csv(reports, os.path.join(out, "summary.csv"))
    n = len(reports)
    failures = sum(not d["passed"] for d in reports)
    print(f"verify: {n - failures}/{n} checks passed")
    return EXIT_CHECK if failures else EXIT_OK


def cmd_oscillatory(args) -> int:
    x0_list = args.x0 or [1e2, 1e3, 1e4]
    # A config is loaded, and so validated, whenever it is given, and its
    # out_dir is the default output directory.
    cfg = RunConfig.load(args.config) if args.config is not None else None
    if args.lam is not None and cfg is None:
        raise ValueError("lam: --lam needs --config")
    if args.lam is None and (args.beta1 is None or args.beta2 is None):
        raise ValueError("beta1/beta2: required unless --lam is given")
    out = args.out or (cfg.out_dir if cfg is not None else ".")
    os.makedirs(out, exist_ok=True)
    if args.lam is not None:
        target = EmbeddingTarget.at(cfg.p, cfg.q, args.lam)
        chk = oscillatory_check_42(
            target, target.data.Psi_f, args.a, x0_list, args.x_max,
            enforce_nonresonance=not args.allow_resonant)
    else:
        chk = oscillatory_check_41(
            args.a, args.beta1, args.beta2, x0_list, args.x_max)
    ratio = chk.max_product_ratio
    ok = bool(ratio <= PRODUCT_RATIO_MAX)
    write_json(os.path.join(out, "oscillatory.json"),
               [dict(chk.to_dict(), max_product_ratio=ratio, passed=ok)])
    print(f"oscillatory: max product ratio {ratio:.4g} "
          f"({'pass' if ok else 'FAIL'} at {PRODUCT_RATIO_MAX:g})")
    return EXIT_OK if ok else EXIT_CHECK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracembed",
        description="Spectral toolkit for periodic Dirac operators: band "
                    "structure, Floquet frames, embedded-eigenvalue "
                    "potential synthesis, and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bands", help="scan the band structure")
    _add_config_flags(sp)

    sp = sub.add_parser("floquet", help="export one Floquet frame")
    _add_config_flags(sp, need_lam=True)

    sp = sub.add_parser("synth", help="synthesize the embedding potential")
    _add_config_flags(sp)

    sp = sub.add_parser("verify", help="re-run all checks from a manifest")
    _add_config_flags(sp)
    sp.add_argument("--manifest", required=True, metavar="PATH")

    sp = sub.add_parser("oscillatory",
                        help="sup-scan the oscillatory integral bounds")
    sp.add_argument("--config", default=None, metavar="PATH")
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--a", type=float, required=True,
                    help="phase frequency")
    sp.add_argument("--beta1", type=float, default=None)
    sp.add_argument("--beta2", type=float, default=None)
    sp.add_argument("--x0", action="append", type=float, default=None)
    sp.add_argument("--x-max", type=float, default=1e6)
    sp.add_argument("--allow-resonant", action="store_true")
    sp.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "oscillatory":
            return cmd_oscillatory(args)
        cfg = RunConfig.load(args.config)
        cfg.out_dir = args.out or cfg.out_dir
        if args.command == "bands":
            return cmd_bands(cfg)
        if args.command == "floquet":
            return cmd_floquet(cfg, args.lam)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.manifest)
        raise ValueError(f"command: unknown {args.command!r}")
    except (ResonantPair, ResonantFrequency) as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiracEmbedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
