"""Command-line entry point.

Subcommands read the hypergraph text format from --input or standard input
and write results to standard output, so shell pipes compose the tools.
Every randomized command embeds a run manifest (command, argument vector,
config, seed, version, input digest) in its output; replaying the manifest's
argv reproduces the output byte for byte.

Exit codes: 0 definitive answer, 1 usage or input error, 2 failure or
timeout outcome.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

from . import __version__
from .absorber import absorb, build_absorber_family, build_absorbing_path
from .auxgraphs import build_g3, build_gv, build_gvw, walk_count_table
from .certify import (
    VertexSeq,
    certify_hamiltonian,
    format_sequence,
    is_squared_cycle,
    is_squared_path,
    is_squared_walk,
    parse_sequence,
)
from .connector import connect, sample_reservoir
from .core import (
    Config,
    Hypergraph3,
    bits_of,
    format_hypergraph,
    mask_of,
    parse_hypergraph,
)
from .generators import complete, dense_random, pikhurko, random_hypergraph
from .pipeline import (
    construct_squared_hamiltonian,
    oracle_has_perfect_k4_tiling,
    oracle_has_squared_hamiltonian,
    threshold_probe,
)
from .tiling import almost_k4_factor, cover_with_squared_paths

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _manifest(command, argv, config=None, seed=None, input_text=None) -> dict:
    """Everything needed to replay a randomized command."""
    return {
        "command": command,
        "argv": list(argv),
        "config": config.as_dict() if config is not None else None,
        "seed": seed,
        "version": __version__,
        "input_digest": (
            hashlib.sha256(input_text.encode()).hexdigest()
            if input_text is not None
            else None
        ),
    }


def _manifest_line(manifest: dict) -> str:
    return "# manifest: " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def _add_config_flags(p: argparse.ArgumentParser, *names: str):
    """One flag per named Config field, typed by the field's default."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=type(getattr(Config, name)))


def _resolve_seed(args, required: bool) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if required:
        raise _UsageError("--seed is required")
    return 0


def _config_from(args) -> Config:
    """A Config from the config flags the command registered and was given;
    every other field keeps its default."""
    kwargs = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(Config)
        if getattr(args, f.name, None) is not None
    }
    kwargs["seed"] = _resolve_seed(args, required=False)
    try:
        return Config(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _read_hypergraph(args) -> tuple[Hypergraph3, str]:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return parse_hypergraph(text), text


def _parse_triple(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"expected three integers, got {text!r}") from None
    if len(parts) != 3:
        raise _UsageError(f"expected three integers, got {text!r}")
    return parts


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_gen(args, argv) -> int:
    seed = None
    if args.kind == "complete":
        h = complete(args.n)
    elif args.kind == "pikhurko":
        h, _parts = pikhurko(args.n)
    elif args.kind == "random":
        seed = _resolve_seed(args, required=True)
        if args.p is None:
            raise _UsageError("gen random needs --p")
        h = random_hypergraph(args.n, args.p, seed)
    else:
        seed = _resolve_seed(args, required=True)
        if args.delta2 is None:
            raise _UsageError("gen dense needs --delta2")
        h = dense_random(args.n, args.delta2, seed)
    manifest = _manifest(f"gen {args.kind}", argv, seed=seed)
    _emit(f"{_manifest_line(manifest)}\n{format_hypergraph(h)}")
    return EXIT_OK


def _cmd_check(args, argv) -> int:
    h, _text = _read_hypergraph(args)
    seq = parse_sequence(args.sequence)
    if args.kind == "cycle":
        closed = VertexSeq(seq.vertices, closed=True)
        ok = certify_hamiltonian(h, closed) if args.hamiltonian else is_squared_cycle(h, closed)
    elif args.kind == "path":
        ok = is_squared_path(h, VertexSeq(seq.vertices))
    else:
        ok = is_squared_walk(h, VertexSeq(seq.vertices))
    if args.json:
        _emit(json.dumps({"kind": args.kind, "accepted": ok}, sort_keys=True))
    else:
        _emit("ACCEPTED" if ok else "REJECTED")
    return EXIT_OK


def _cmd_aux(args, argv) -> int:
    h, _text = _read_hypergraph(args)
    if args.kind == "walks":
        if args.v is None or args.length is None or args.beta is None:
            raise _UsageError("aux walks needs --v (source), --length and --beta")
        g = build_g3(h, args.beta)
        counts = walk_count_table(g, args.v, args.length)
        lines = ["vertex,walks"]
        lines += [f"{v},{counts[v]}" for v in g.vertices()]
        _emit("\n".join(lines))
        return EXIT_OK
    if args.kind == "g3":
        if args.beta is None:
            raise _UsageError("aux g3 needs --beta")
        g = build_g3(h, args.beta)
    elif args.kind == "gv":
        if args.beta is None or args.v is None:
            raise _UsageError("aux gv needs --beta and --v")
        g = build_gv(h, args.v, args.beta)
    else:
        if args.v is None or args.w is None:
            raise _UsageError("aux gvw needs --v and --w")
        g = build_gvw(h, args.v, args.w)
    lines = [f"# vertices: {' '.join(str(v) for v in g.vertices())}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    _emit("\n".join(lines))
    return EXIT_OK


def _cmd_connect(args, argv) -> int:
    h, _text = _read_hypergraph(args)
    abc = _parse_triple(args.src)
    xyz = _parse_triple(args.dst)
    try:
        forbid = [int(part) for part in (args.forbid or "").replace(",", " ").split()]
    except ValueError:
        raise _UsageError(f"bad --forbid list {args.forbid!r}") from None
    forbidden = mask_of(h.check_vertex(v, "forbidden vertex") for v in forbid)
    seq = connect(h, abc, xyz, forbidden=forbidden, cap_m=args.cap_m)
    if args.json:
        payload = {"found": seq is not None}
        if seq is not None:
            payload["sequence"] = list(seq.vertices)
        _emit(json.dumps(payload, sort_keys=True))
    elif seq is None:
        _emit("NONE")
    else:
        _emit(format_sequence(seq))
    return EXIT_OK if seq is not None else EXIT_FAILURE


def _cmd_tile(args, argv) -> int:
    h, text = _read_hypergraph(args)
    cfg = _config_from(args)
    result = almost_k4_factor(h, cfg)
    payload = {
        "manifest": _manifest("tile", argv, config=cfg, seed=cfg.seed, input_text=text),
        "k4_tiles": [list(t) for t in result.k4_tiles],
        "all_tiles": [list(t) for t in result.tiling.tiles],
        "weight": result.tiling.weight,
        "leftover": sorted(result.leftover),
        "leftover_bound": result.leftover_bound,
        "within_bound": result.within_bound,
        "pruned": sorted(result.pruned),
    }
    _emit(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_cover(args, argv) -> int:
    h, text = _read_hypergraph(args)
    cfg = _config_from(args)
    result = cover_with_squared_paths(h, cfg.q, cfg.mu, seed=cfg.seed)
    payload = {
        "manifest": _manifest("cover", argv, config=cfg, seed=cfg.seed, input_text=text),
        "paths": [list(p.vertices) for p in result.paths],
        "uncovered": sorted(result.uncovered),
        "mu_bound": result.mu_bound,
        "within_bound": result.within_bound,
    }
    _emit(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_absorb(args, argv) -> int:
    if not args.demo:
        raise _UsageError("absorb currently only supports --demo")
    h = complete(args.n)
    cfg = _config_from(args)
    reservoir = sample_reservoir(h, cfg)
    fam = build_absorber_family(h, reservoir, cfg)
    pa = build_absorbing_path(h, fam, reservoir, cfg)
    outside = sorted(
        set(range(args.n)) - set(pa.vertices) - set(bits_of(reservoir.members))
    )
    free = outside[: len(fam.tuples)]
    spliced = absorb(h, pa, fam, free)
    manifest = _manifest("absorb --demo", argv, config=cfg, seed=cfg.seed)
    _emit(
        "\n".join(
            [
                _manifest_line(manifest),
                f"before: {format_sequence(pa)}",
                f"absorbed: {' '.join(str(v) for v in free)}",
                f"after: {format_sequence(spliced)}",
            ]
        )
    )
    return EXIT_OK


def _cmd_construct(args, argv) -> int:
    h, text = _read_hypergraph(args)
    cfg = _config_from(args)
    report = construct_squared_hamiltonian(h, cfg)
    stats = dict(report.stats)
    if not args.timings:
        stats.pop("timings", None)
    payload = {
        "manifest": _manifest(
            "construct", argv, config=cfg, seed=cfg.seed, input_text=text
        ),
        "outcome": report.outcome,
        "cycle": list(report.cycle.vertices) if report.cycle else None,
        "stage": report.stage,
        "detail": report.detail,
        "attempts": report.attempts,
        "stats": stats,
    }
    _emit(json.dumps(payload, sort_keys=True))
    return EXIT_OK if report.succeeded else EXIT_FAILURE


def _cmd_oracle(args, argv) -> int:
    h, _text = _read_hypergraph(args)
    if args.kind == "cycle":
        result = oracle_has_squared_hamiltonian(h, args.time_limit)
    else:
        result = oracle_has_perfect_k4_tiling(h, args.time_limit)
    if result.status != "yes":
        witness = witness_json = None
    elif args.kind == "cycle":
        witness = format_sequence(result.witness)
        witness_json = list(result.witness.vertices)
    else:
        witness = " | ".join(" ".join(str(v) for v in t) for t in result.witness)
        witness_json = [list(t) for t in result.witness]
    if args.json:
        _emit(
            json.dumps(
                {"kind": args.kind, "status": result.status, "witness": witness_json},
                sort_keys=True,
            )
        )
    else:
        _emit(result.status if witness is None else f"{result.status}\n{witness}")
    return EXIT_OK if result.status in ("yes", "no") else EXIT_FAILURE


def _cmd_probe(args, argv) -> int:
    seed = _resolve_seed(args, required=True)
    try:
        grid = [float(p) for p in args.grid.split(",") if p != ""]
    except ValueError:
        raise _UsageError(f"bad --grid {args.grid!r}") from None
    if not grid:
        raise _UsageError("empty --grid")
    csv_text = threshold_probe(
        args.n,
        grid,
        args.trials,
        seed,
        time_limit=args.time_limit,
        run_oracle=not args.no_oracle,
        run_pipeline=not args.no_pipeline,
    )
    _emit(f"{_manifest_line(_manifest('probe', argv, seed=seed))}\n{csv_text}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypersquare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a hypergraph")
    p.add_argument("kind", choices=["complete", "pikhurko", "random", "dense"])
    p.add_argument("n", type=int)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="certify a sequence against a hypergraph")
    p.add_argument("kind", choices=["path", "cycle", "walk"])
    p.add_argument("sequence")
    p.add_argument("--input", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--hamiltonian",
        action="store_true",
        help="for cycles, also require that every vertex is used",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("aux", help="emit an auxiliary graph or walk counts")
    p.add_argument("kind", choices=["g3", "gv", "gvw", "walks"])
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--input", default=None)
    p.set_defaults(func=_cmd_aux)

    p = sub.add_parser("connect", help="search a squared path between two edges")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--forbid", default=None)
    p.add_argument("--cap-m", dest="cap_m", type=int, default=Config.cap_m)
    p.add_argument("--input", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("tile", help="almost-perfect tetrahedron factor")
    p.add_argument("--input", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_config_flags(p, "alpha", "tau")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("cover", help="cover by fixed-length squared paths")
    p.add_argument("--input", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_config_flags(p, "q", "mu")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("absorb", help="absorbing-path walkthrough")
    p.add_argument("--demo", action="store_true")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    _add_config_flags(p, "theta_star", "cap_m")
    p.set_defaults(func=_cmd_absorb)

    p = sub.add_parser("construct", help="end-to-end cycle construction")
    p.add_argument("--input", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timings", action="store_true")
    _add_config_flags(p, "theta_star", "cap_m", "q")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("oracle", help="exact small-instance ground truth")
    p.add_argument("kind", choices=["cycle", "tiling"])
    p.add_argument("--time-limit", dest="time_limit", type=float, default=120.0)
    p.add_argument("--input", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("probe", help="threshold probe over a fraction grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-limit", dest="time_limit", type=float, default=60.0)
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--no-pipeline", action="store_true")
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
