"""Command-line front end.

Subcommands: invariants, decide, product, classify, greedy, enumerate,
verify.  Graph inputs are one of: a graph6 literal, a path to a .g6 file
(every line is processed), or ``named:FAMILY:PARAM`` (see
:mod:`domlab.catalog`).

Exit codes: 0 success / theorem holds; 1 counterexample found or a failed
``--assert``; 2 usage or input error; 141 stdout closed by its reader.

Configuration precedence: command-line flags, then ``DOMLAB_*`` environment
variables, then the key=value config file at ``~/.domlab.conf`` (override
the path with ``DOMLAB_CONFIG``, which must name a file).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

from .catalog import SPECIAL_EDGES, named_graph
from .classify import (
    classify_small_triangle_free,
    corona_decomposition,
    pc_partition,
    universal_vertices,
)
from .domination import (
    domination_profile,
    greedy_maximal_independent,
    greedy_minimal_dominating,
    is_well_covered,
    is_well_dominated,
)
from .enumeration import DEFAULT_BUDGET, enumerate_connected
from .graph6 import load_graph6_file, parse_graph6, save_graph6_file, to_graph6
from .graphs import Graph, girth, is_connected, is_triangle_free, set_of
from .isomorphism import are_isomorphic
from .products import PRODUCT_KINDS, product
from .theorems import THEOREMS
from .verify import COUNTEREXAMPLE_CAP, DEFAULT_CORPORA, PairCorpusSpec, verify_corpus

CONFIG_ENV = "DOMLAB_CONFIG"
DEFAULT_CONFIG = "~/.domlab.conf"


class CliError(Exception):
    """Input or usage problem: exits with status 2."""


def _setting(flag_value, env_name: str, config_key: str):
    if flag_value is not None:
        return flag_value
    if env_name in os.environ:
        return os.environ[env_name]
    named = os.environ.get(CONFIG_ENV)
    path = Path(named or DEFAULT_CONFIG).expanduser()
    if named and not path.is_file():
        raise CliError(f"{CONFIG_ENV} names {named!r}, which is not a file")
    value = None
    if path.is_file():  # the key's last key=value line wins; a #comment never matches
        for line in path.read_text().splitlines():
            key, eq, val = line.partition("=")
            if eq and key.strip() == config_key:
                value = val.strip()
    return value


def load_graphs(arg: str) -> list[Graph]:
    """Resolve one graph argument to a list of graphs."""
    if arg.startswith("named:"):
        return [named_graph(arg[len("named:"):])]
    path = Path(arg)
    if path.is_file():
        return load_graph6_file(path)
    return [parse_graph6(arg)]


def _identify(g: Graph) -> str | None:
    # Match against same-order named families for friendlier output.
    families = ("complete", "path", "cycle") if g.n >= 3 else ("complete", "path")
    specs = [f"{family}:{g.n}" for family in families]
    specs += [f"special:{name}" for name in SPECIAL_EDGES]
    return next((f"named:{spec}" for spec in specs if are_isomorphic(g, named_graph(spec))), None)


def _emit(obj, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        _print_human(obj)


def _nested(val) -> bool:
    """A value printed over several lines: a non-empty dict, or a list of lists or dicts."""
    return (isinstance(val, dict) and bool(val)
            or isinstance(val, list) and any(isinstance(x, (dict, list)) for x in val))


def _print_human(obj: dict | list, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if _nested(val):
                print(f"{pad}{key}:")
                _print_human(val, indent + 1)
            else:
                print(f"{pad}{key}: {_flat(val)}")
    else:
        for item in obj:
            if _nested(item):
                _print_human(item, indent)
                print()
            else:
                print(f"{pad}{_flat(item)}")


def _flat(val) -> str:
    if isinstance(val, list):
        return "[" + ", ".join(str(x) for x in val) + "]"
    if isinstance(val, bool):
        return "true" if val else "false"
    return str(val)


def _graph_summary(g: Graph) -> dict:
    gir = girth(g)
    info = {
        "graph6": to_graph6(g),
        "order": g.n,
        "size": g.edge_count,
        "connected": is_connected(g),
        "girth": None if gir == float("inf") else int(gir),
        "triangle_free": is_triangle_free(g),
    }
    info.update(domination_profile(g).to_dict())
    return info


# -- subcommands --------------------------------------------------------------


def _per_graph(args, row) -> list[dict]:
    """Emit ``row(g)`` for each graph of ``args.graph`` (a bare row for one)."""
    rows = [row(g) for g in load_graphs(args.graph)]
    if not rows:
        raise CliError(f"no graphs in {args.graph}")
    _emit(rows if len(rows) > 1 else rows[0], args.json)
    return rows


def _cmd_invariants(args) -> int:
    _per_graph(args, _graph_summary)
    return 0


_DECIDERS = {
    "well-dominated": is_well_dominated,
    "well-covered": is_well_covered,
    "connected": is_connected,
    "triangle-free": is_triangle_free,
    "corona": lambda g: corona_decomposition(g) is not None,
    "pc-member": lambda g: pc_partition(g) is not None,
}


def _cmd_decide(args) -> int:
    decider = _DECIDERS[args.property]
    rows = _per_graph(args, lambda g: {"graph6": to_graph6(g), args.property: decider(g)})
    return 1 if args.assert_ and not all(row[args.property] for row in rows) else 0


def _cmd_product(args) -> int:
    gs = load_graphs(args.left)
    hs = load_graphs(args.right)
    if len(gs) != 1 or len(hs) != 1:
        raise CliError("product takes exactly one graph per factor argument")
    p = product(args.kind, gs[0], hs[0])
    if args.emit == "dot":
        print(_to_dot(p.graph))
        return 0
    info = {
        "kind": args.kind,
        "graph6": to_graph6(p.graph),
        "order": p.graph.n,
        "size": p.graph.edge_count,
        "isomorphic_to": _identify(p.graph),
    }
    if args.emit == "graph6" and not args.json:
        print(info["graph6"])
        if info["isomorphic_to"]:
            print(f"# isomorphic to {info['isomorphic_to']}", file=sys.stderr)
        return 0
    _emit(info, args.json)
    return 0


def _to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    seen = 0
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
        seen |= 1 << u | 1 << v
    for v in range(g.n):
        if not seen >> v & 1:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines)


def _classify_row(g: Graph) -> dict:
    dec = corona_decomposition(g)
    pc = pc_partition(g)
    row = {
        "graph6": to_graph6(g),
        "small_triangle_free_tag": classify_small_triangle_free(g),
        "universal_vertices": list(set_of(universal_vertices(g))),
        "corona": None,
        "pc_partition": None,
    }
    if dec is not None:
        row["corona"] = {
            "core_graph6": to_graph6(dec.core),
            "core_vertices": list(dec.core_vertices),
            "matching": [list(p) for p in dec.matching],
            "ambiguous": dec.ambiguous,
        }
    if pc is not None:
        row["pc_partition"] = {
            "pendant_side": list(set_of(pc.p_mask)),
            "cycle_side": list(set_of(pc.c_mask)),
            "pendant_matching": [list(p) for p in pc.pendant_matching],
            "basic_cycles": [list(c) for c in pc.basic_cycles],
            "ambiguous": pc.ambiguous,
        }
    return row


def _cmd_classify(args) -> int:
    _per_graph(args, _classify_row)
    return 0


def _cmd_greedy(args) -> int:
    def row(g: Graph) -> dict:
        if args.ordering is not None:
            try:
                order = [int(tok) for tok in args.ordering.split(",")]
            except ValueError:
                raise CliError("--ordering must be a comma-separated vertex list") from None
        else:
            order = list(range(g.n))
            if args.seed is not None:
                random.Random(args.seed).shuffle(order)
        if args.mode == "dominating":
            result = greedy_minimal_dominating(g, order)
        else:
            result = greedy_maximal_independent(g, order)
        return {
            "graph6": to_graph6(g),
            "mode": args.mode,
            "ordering": order,
            "result": list(set_of(result)),
            "size": result.bit_count(),
        }

    _per_graph(args, row)
    return 0


def _cmd_enumerate(args) -> int:
    cache_dir = _setting(args.cache_dir, "DOMLAB_CACHE_DIR", "cache_dir")
    graphs = list(enumerate_connected(args.order, triangle_free=args.triangle_free,
                                      budget=args.budget, cache_dir=cache_dir))
    if args.output:
        save_graph6_file(args.output, graphs)
    else:
        sys.stdout.writelines(f"{to_graph6(g)}\n" for g in graphs)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        if any(v is not None and v is not False for k, v in vars(args).items()
               if k not in ("command", "func", "list", "json")):
            raise CliError("verify --list takes no theorem id or sweep option")
        rows = [{"id": tid, "arity": e.arity, "summary": e.summary}
                for tid, e in sorted(THEOREMS.items())]
        _emit(rows, args.json)
        return 0
    if args.theorem is None:
        raise CliError("verify needs a theorem id (or --list)")
    tid = args.theorem
    if tid not in THEOREMS:
        raise CliError(f"unknown theorem id {tid!r}; see verify --list")
    if args.corpus is not None and (args.min_order, args.max_order) != (None, None):
        raise CliError("--min-order and --max-order do not apply to a --corpus file")
    if args.product_cap is not None and THEOREMS[tid].arity == 1:
        raise CliError(f"--product-cap does not apply to {tid}, which takes one graph")
    default = DEFAULT_CORPORA[tid]
    base = default.left if isinstance(default, PairCorpusSpec) else default
    given = {"min_order": args.min_order, "max_order": args.max_order,
             "path": args.corpus, "budget": args.budget}
    corpus = replace(base, triangle_free=base.triangle_free or args.triangle_free,
                     **{key: val for key, val in given.items() if val is not None})
    if isinstance(default, PairCorpusSpec):
        cap = args.product_cap if args.product_cap is not None else default.product_cap
        corpus = replace(default, left=corpus, right=corpus, product_cap=cap)
    workers = _setting(args.workers, "DOMLAB_WORKERS", "workers")
    try:
        workers = int(workers) if workers is not None else (os.cpu_count() or 1)
    except ValueError:
        raise CliError(f"workers must be an integer, got {workers!r}") from None
    cache_dir = _setting(args.cache_dir, "DOMLAB_CACHE_DIR", "cache_dir")
    cap = COUNTEREXAMPLE_CAP if args.cap is None else args.cap
    report = verify_corpus(tid, corpus, workers=workers, cache_dir=cache_dir, cap=cap)
    payload = report.to_dict()
    payload["schema"] = "domlab-report-v1"
    _emit(payload, args.json)
    return 1 if report.counterexample_count else 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domlab",
        description="Domination invariants, graph products, and exhaustive "
                    "verification of structural theorems on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("invariants", help="domination profile and structure of a graph")
    p.add_argument("graph", help="graph6 literal, .g6 file, or named:FAMILY:PARAM")
    add_json(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("decide", help="decide a graph property")
    p.add_argument("property", choices=sorted(_DECIDERS))
    p.add_argument("graph")
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 when the property fails")
    add_json(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("product", help="build a graph product")
    p.add_argument("kind", choices=PRODUCT_KINDS)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emit", choices=("graph6", "dot"), default=None)
    add_json(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("classify", help="corona / pendant-5-cycle structure and family tag")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("greedy", help="run a greedy dominating/independent procedure")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("dominating", "independent"), default="dominating")
    order = p.add_mutually_exclusive_group()
    order.add_argument("--seed", type=int, default=None, help="shuffle the ordering with this seed")
    order.add_argument("--ordering", default=None, help="explicit comma-separated vertex ordering")
    add_json(p)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("enumerate", help="list connected graphs of one order in graph6")
    p.add_argument("order", type=int)
    p.add_argument("--triangle-free", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="sweep a theorem over a corpus")
    p.add_argument("theorem", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list the theorem table")
    p.add_argument("--min-order", type=int, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--triangle-free", action="store_true", default=False)
    p.add_argument("--corpus", default=None,
                   help="read instances from a .g6 file (pair theorems draw "
                        "both factors from it)")
    p.add_argument("--product-cap", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--cap", type=int, default=None,
                   help="max counterexample certificates kept in the report")
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit, so that a closed stdout is caught
        return code
    except BrokenPipeError:  # stdout's reader left, which is no input error; as
        # Python's signal docs advise, stdout goes to devnull so exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
