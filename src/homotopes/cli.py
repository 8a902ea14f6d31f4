"""Command-line surface: verification suites, tables, eigenspace reports,
group checks and normal forms, with deterministic JSON/Markdown output.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
Reproducibility contract: seeding uses Python's documented Mersenne-Twister
``random.Random(seed)``; the same seed and configuration yield byte-identical
JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import families, groups
from .families import (CONSTRUCTIONS, SIGNS, check_sizes, family, family_axiom_suite,
                       family_labels, instantiate, size_letters, verify_table)
from .matrices import Matrix
from .normalforms import intertwiner_check, normal_form
from .scalars import Q


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sizes(target: str, letters: str, args) -> tuple:
    """The sizes of ``target`` read from --p, --q and --n by its size letters
    ("pq" or "n"); a size flag the target does not take is an error."""
    extra = [f"--{s}" for s in "pqn" if s not in letters and getattr(args, s) is not None]
    if extra:
        raise ValueError(f"{target} does not take {' or '.join(extra)}")
    missing = [f"--{s}" for s in letters if getattr(args, s) is None]
    if missing:
        raise ValueError(f"{target} needs {' and '.join(missing)}")
    sizes = check_sizes(letters, [getattr(args, s) for s in letters])
    if max(sizes) > 4:
        print("warning: sizes above 4 get slow quickly", file=sys.stderr)
    return sizes


def _construction(args):
    name = args.construction
    return instantiate(name, _sizes(name, size_letters(name), args))


def cmd_axioms(args) -> int:
    sizes = _sizes(f"family {args.family}", family(args.family).sizes, args)
    report = family_axiom_suite(args.family, sizes, args.samples, args.seed)
    _emit(_dump_json(report), args.out)
    return 0 if report["pass"] else 1


def cmd_table(args) -> int:
    artifact = verify_table(_construction(args), args.samples, args.seed)
    if args.format == "md":
        _emit(artifact.to_markdown(), args.out)
    else:
        _emit(_dump_json(artifact.to_json()), args.out)
    return 0 if artifact.verified else 1


def cmd_eigenspaces(args) -> int:
    c = _construction(args)
    model_failures = c.validate_models()
    report = {
        "construction": c.name,
        "sizes": list(c.sizes),
        "dims": [c.piece(s).dim for s in SIGNS],
        "pieces": [{"signs": list(s), "dim": c.piece(s).dim,
                    "model": c.models[s].name} for s in SIGNS],
        "direct_sum": c.decomposition.check_direct_sum(),
        "models_verified": not model_failures,
        "involutions": [c.tau.to_json(), c.tau_tilde.to_json()],
        "notes": c.notes,
    }
    if args.format == "md":
        lines = [f"# {c.name}{list(c.sizes)} joint eigenspaces", "",
                 "| signs | dim | model |", "|---|---|---|"]
        for p in report["pieces"]:
            lines.append(f"| {tuple(p['signs'])} | {p['dim']} | {p['model']} |")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json(report), args.out)
    return 0 if report["direct_sum"] and report["models_verified"] else 1


# --check of the group subcommand: its suite over Q at size n
GROUP_CHECKS = {
    "axioms": lambda n, samples, seed: groups.group_axiom_suite(n, n, Q, samples, seed),
    "tangent": lambda n, samples, seed: groups.tangent_suite(n, n, Q, samples, seed),
    "membership": lambda n, samples, seed: groups.unitary_suite(n, Q, "id", samples, seed),
}


def cmd_group(args) -> int:
    n = args.n if args.n is not None else 2
    report = GROUP_CHECKS[args.check](n, args.samples, args.seed)
    _emit(_dump_json(report), args.out)
    return 0 if report["pass"] else 1


def cmd_normal_form(args) -> int:
    with open(args.input) as fh:
        a = Matrix.from_json(json.load(fh))
    nf = normal_form(a, args.kind)
    carrier = families.matrix_space(a.cols, a.rows, a.ring)
    intertwines = intertwiner_check(nf, carrier)
    report = nf.to_json()
    report["intertwines"] = intertwines
    _emit(_dump_json(report), args.out)
    return 0 if nf.verified and intertwines else 1


def cmd_list_families(args) -> int:
    entries = [family(label).to_json() for label in family_labels()]
    if args.format == "md":
        lines = ["| label | ring | sizes | space | pair |", "|---|---|---|---|---|"]
        for e in entries:
            lines.append(f"| {e['label']} | {e['ring']} | {e['sizes']} | {e['space']} | {e['pair']} |")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json({"families": entries, "constructions": list(CONSTRUCTIONS)}), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, so every in-process ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="homotopes",
        description="Exact verification of homotope Lie algebras, triple systems and groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"--n": {"type": int}, "--p": {"type": int}, "--q": {"type": int},
              "--seed": {"type": int, "default": 0},
              "--format": {"choices": ("json", "md"), "default": "json"}, "--out": {}}

    def options(p, *names, samples=None):
        """Give the subcommand ``p`` these shared options, and --samples with
        this default: only the ones it reads, so argparse rejects the others."""
        for name in names:
            p.add_argument(name, **shared[name])
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples)

    p = sub.add_parser("axioms", help="run the LTS axiom suite for a family label")
    p.add_argument("--family", required=True)
    options(p, "--n", "--p", "--q", "--seed", "--out", samples=10)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("table", help="verify and emit the 4x4 construction table")
    p.add_argument("--construction", choices=CONSTRUCTIONS, required=True)
    options(p, "--n", "--p", "--q", "--seed", "--format", "--out", samples=5)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("eigenspaces", help="joint eigenspace dims and models")
    p.add_argument("--construction", choices=CONSTRUCTIONS, required=True)
    options(p, "--n", "--p", "--q", "--format", "--out")
    p.set_defaults(fn=cmd_eigenspaces)

    p = sub.add_parser("group", help="group-law verification suites")
    p.add_argument("--check", choices=tuple(GROUP_CHECKS), default="axioms")
    options(p, "--n", "--seed", "--out", samples=10)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("normal-form", help="normal form of a parameter matrix")
    p.add_argument("--kind", choices=("rectangular", "symmetric", "skew", "hermitian"),
                   required=True)
    p.add_argument("--input", required=True, help="path to a matrix JSON file")
    options(p, "--out")
    p.set_defaults(fn=cmd_normal_form)

    p = sub.add_parser("list-families", help="list the family catalog")
    options(p, "--format", "--out")
    p.set_defaults(fn=cmd_list_families)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "samples", 1) < 1:
            raise ValueError("--samples must be >= 1")
        return args.fn(args)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        # str() of a KeyError is the repr of its argument, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
