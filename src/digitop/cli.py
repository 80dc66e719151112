"""Command-line front end: build constructions, run verification queries,
export images, and replay the theorem suite."""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from typing import List, Optional

import click
from click.core import ParameterSource

from . import constructions as build_mod
from .constructions import NamedComplex
from .graph import DisconnectedImageError, UnknownVertexError
from .serialization import (
    complex_to_document,
    document_to_complex,
    report_to_document,
    to_dot,
)
from .suite import ROWS, run_suite
from .verifier import (
    FAILS,
    HOLDS,
    UNKNOWN,
    SearchBudget,
    is_freezing,
    is_limiting,
    is_minimal_freezing,
    is_s_cold,
    search_minimal_freezing,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_CRASH = 4
EXIT_INTERRUPT = 130  # 128 + SIGINT, as shells report it


@click.group()
@click.option("--budget-nodes", default=100_000_000, show_default=True, type=int)
@click.option("--budget-ms", default=120_000, show_default=True, type=int)
@click.option("--quiet", is_flag=True, default=False)
@click.pass_context
def main(ctx: click.Context, budget_nodes: int, budget_ms: int, quiet: bool):
    """Digital-topology constructions and freezing-set verification."""
    try:
        budget = SearchBudget(max_nodes=budget_nodes, max_millis=budget_ms)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    ctx.obj = {"budget": budget, "quiet": quiet}


def _reason(exc: Exception) -> str:
    """One line for a bad-input error; a KeyError's str() is a quoted repr."""
    if isinstance(exc, UnknownVertexError):
        return exc.args[0]
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc)


def _load_complex(path: str) -> NamedComplex:
    try:
        return document_to_complex(json.loads(Path(path).read_text()))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"cannot read image {path}: {_reason(exc)}")


def _write_or_print(text: str, out: Optional[str], quiet: bool) -> None:
    # Every echo names its stream: without one, click caches a wrapper that
    # keeps each replaced sys.stdout alive, so in-process runs leak output.
    if out:
        Path(out).write_text(text)
    elif not quiet:
        click.echo(text, file=sys.stdout, nl=not text.endswith("\n"))


def _resolve_set(nc: NamedComplex, spec: str) -> List[int]:
    """A set spec is 'all', 'all-minus-<spec>', a +-joined union of named
    sets, or a path to a JSON list of vertex ids."""
    rest = spec
    complements = 0
    while rest.startswith("all-minus-"):
        rest = rest[len("all-minus-") :]
        complements += 1
    terms = rest.split("+")
    if "" in terms:
        raise click.UsageError(f"set spec {spec!r} has an empty term")
    members = _union(nc, terms)
    if complements % 2:
        members = set(range(nc.image.n)) - members
    return sorted(members)


def _union(nc: NamedComplex, terms: List[str]) -> set:
    if terms == ["all"]:
        return set(range(nc.image.n))
    members: set = set()
    for term in terms:
        if term in nc.named_sets:
            members |= nc.named_sets[term]
            continue
        try:
            is_file = Path(term).exists()
        except (OSError, ValueError):  # a name too long for the OS, or a NUL byte
            is_file = False
        if not is_file:
            raise click.UsageError(
                f"unknown set {term!r}: not a named set of the image nor a file"
            )
        try:
            ids = json.loads(Path(term).read_text())
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise click.UsageError(f"cannot read set file {term}: {exc}")
        if not isinstance(ids, list) or not all(type(x) is int for x in ids):
            raise click.UsageError(f"set file {term} is not a JSON list of ids")
        try:
            members |= {nc.image.check_vertex(x) for x in ids}
        except UnknownVertexError as exc:
            raise click.UsageError(f"set file {term}: {_reason(exc)}")
    return members


FAMILIES = [
    "interval",
    "box",
    "cycle",
    "cone",
    "suspension",
    "pyramid",
    "solid-pyramid",
    "bipyramid",
    "solid-bipyramid",
]


def _build_family(
    family: str,
    n: Optional[int],
    a: int,
    b: Optional[int],
    m: Optional[int],
    extents: Optional[str],
    u: int,
    base: Optional[str],
    base_image: Optional[str],
) -> NamedComplex:
    try:
        if family == "interval":
            if b is None:
                raise click.UsageError("interval requires --a and --b")
            return build_mod.interval(a, b)
        if family == "box":
            if not extents:
                raise click.UsageError("box requires --extents, e.g. --extents 2,2")
            dims = [int(tok) for tok in extents.split(",")]
            return build_mod.box(dims, u)
        if family == "cycle":
            if m is None:
                raise click.UsageError("cycle requires --m")
            return build_mod.simple_closed_curve(m)
        if family in ("cone", "suspension"):
            if base_image:
                base_nc = _load_complex(base_image)
            elif base:
                base_nc = _build_family(base, n, a, b, m, extents, u, None, None)
            else:
                raise click.UsageError(f"{family} requires --base or --base-image")
            builder = build_mod.cone if family == "cone" else build_mod.suspension
            return builder(base_nc.image)
        if n is None:
            raise click.UsageError(f"{family} requires --n")
        builder = {
            "pyramid": build_mod.pyramid,
            "solid-pyramid": build_mod.solid_pyramid,
            "bipyramid": build_mod.bipyramid,
            "solid-bipyramid": build_mod.solid_bipyramid,
        }[family]
        return builder(n)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command("build")
@click.argument("family", type=click.Choice(FAMILIES))
@click.option("--n", type=int, default=None, help="pyramid-family size")
@click.option("--a", type=int, default=0, help="interval lower endpoint")
@click.option("--b", type=int, default=None, help="interval upper endpoint")
@click.option("--m", type=int, default=None, help="cycle length")
@click.option("--extents", type=str, default=None, help="box extents, comma separated")
@click.option("--u", type=int, default=1, show_default=True, help="c_u adjacency index")
@click.option("--base", type=click.Choice(FAMILIES), default=None)
@click.option("--base-image", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def cmd_build(ctx, family, n, a, b, m, extents, u, base, base_image, out):
    """Build a named construction and write its image document."""
    nc = _build_family(family, n, a, b, m, extents, u, base, base_image)
    text = json.dumps(complex_to_document(nc), indent=2) + "\n"
    _write_or_print(text, out, quiet=False)
    if not ctx.obj["quiet"]:
        click.echo(
            f"{family}: {nc.image.n} vertices, {len(nc.image.edges)} edges",
            file=sys.stderr,
        )


@main.command("verify")
@click.argument(
    "property", type=click.Choice(["freezing", "cold", "limiting", "minimal"])
)
@click.option("--image", "image_path", required=True, type=click.Path())
@click.option("--set", "set_spec", required=True, type=str)
@click.option("--s", type=int, default=1, show_default=True, help="cold displacement bound")
@click.option("--m", type=int, default=None, help="limiting hypothesis bound")
@click.option("--n", type=int, default=None, help="limiting conclusion bound")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def cmd_verify(ctx, property, image_path, set_spec, s, m, n, out):
    """Decide a freezing / cold / limiting / minimal-freezing query."""
    reads = {"cold": ("s",), "limiting": ("m", "n")}.get(property, ())
    for bound in ("s", "m", "n"):
        given = ctx.get_parameter_source(bound) is not ParameterSource.DEFAULT
        if given and bound not in reads:
            raise click.UsageError(f"{property} does not read --{bound}")
    nc = _load_complex(image_path)
    subset = _resolve_set(nc, set_spec)
    budget = ctx.obj["budget"]
    try:
        if property == "freezing":
            report = is_freezing(nc.image, subset, budget)
        elif property == "cold":
            report = is_s_cold(nc.image, subset, s, budget)
        elif property == "limiting":
            if m is None or n is None:
                raise click.UsageError("limiting requires --m and --n")
            report = is_limiting(nc.image, subset, m, n, budget)
        else:
            report = is_minimal_freezing(nc.image, subset, budget)
    except ValueError as exc:  # a disconnected image, or a negative bound
        raise click.UsageError(str(exc))
    _write_or_print(
        json.dumps(report_to_document(report), indent=2), out, ctx.obj["quiet"]
    )
    ctx.exit({HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS, UNKNOWN: EXIT_UNKNOWN}[report.verdict])


@main.command("search-minimal")
@click.option("--image", "image_path", required=True, type=click.Path())
@click.option("--set", "set_spec", default=None, type=str, help="freezing seed set")
@click.pass_context
def cmd_search_minimal(ctx, image_path, set_spec):
    """Greedily shrink a freezing seed set to a minimal freezing set."""
    nc = _load_complex(image_path)
    seed_set = None if set_spec is None else _resolve_set(nc, set_spec)
    try:
        result = search_minimal_freezing(nc.image, seed_set, ctx.obj["budget"])
    except (ValueError, DisconnectedImageError) as exc:
        raise click.UsageError(str(exc))
    if result.members is None:
        click.echo("unknown: budget exhausted", file=sys.stdout)
        ctx.exit(EXIT_UNKNOWN)
    click.echo(json.dumps(sorted(result.members)), file=sys.stdout)


@main.command("metric")
@click.option("--image", "image_path", required=True, type=click.Path())
@click.option("--source", "src", type=int, default=None)
@click.option("--target", "dst", type=int, default=None)
@click.option("--diameter", "want_diameter", is_flag=True, default=False)
@click.pass_context
def cmd_metric(ctx, image_path, src, dst, want_diameter):
    """Report shortest-path distances or the diameter."""
    nc = _load_complex(image_path)
    try:
        if want_diameter:
            click.echo(str(nc.image.diameter()), file=sys.stdout)
        elif src is not None and dst is not None:
            d = nc.image.distance(src, dst)
            click.echo("inf" if d == float("inf") else str(int(d)), file=sys.stdout)
        else:
            raise click.UsageError("metric requires --diameter or --source/--target")
    except (DisconnectedImageError, KeyError, ValueError) as exc:
        raise click.UsageError(_reason(exc))


@main.command("export")
@click.option("--image", "image_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["dot", "json"]), default="dot")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def cmd_export(ctx, image_path, fmt, out):
    """Export an image document as Graphviz DOT or canonical JSON."""
    nc = _load_complex(image_path)
    if fmt == "dot":
        text = to_dot(nc)
    else:
        text = json.dumps(complex_to_document(nc), indent=2) + "\n"
    _write_or_print(text, out, quiet=False)


@main.command("paper-suite")
@click.option("--scale", type=int, default=2, show_default=True)
@click.option("--rows", type=str, default=None, help="comma-separated row numbers")
@click.pass_context
def cmd_paper_suite(ctx, scale, rows):
    """Run every theorem-instance check and print a pass/fail table."""
    valid = {str(number): number for number, _, _ in ROWS}
    terms = [] if rows is None else [term.strip() for term in rows.split(",")]
    for term in terms:
        if term not in valid:
            raise click.UsageError(
                f"--rows term {term!r} is not a suite row; valid rows are 1-{len(ROWS)}"
            )
    only = None if rows is None else [valid[term] for term in terms]
    try:
        results = run_suite(scale=scale, budget=ctx.obj["budget"], only=only)
    except ValueError as exc:  # a scale the suite does not define
        raise click.UsageError(str(exc))
    width = max(len(r.title) for r in results)
    for r in results:
        click.echo(
            f"{r.number:>2}  {r.title:<{width}}  {r.status.upper():<7} "
            f"({r.elapsed_ms:8.1f} ms)  {r.detail}",
            file=sys.stdout,
        )
    statuses = {r.status for r in results}
    if "fail" in statuses:
        ctx.exit(EXIT_FAILS)
    if "unknown" in statuses:
        ctx.exit(EXIT_UNKNOWN)
    ctx.exit(EXIT_HOLDS)


def run() -> None:
    """The installed entry point: `main`, with exit codes that cannot be read
    as `fails` (1).  A usage error exits with its own code (2), an interrupt
    (Ctrl-C, or end of input) 130, and any other exception that escapes
    prints its traceback on stderr and exits 4."""
    try:
        sys.exit(main(standalone_mode=False))
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        click.echo("Aborted!", err=True)
        sys.exit(EXIT_INTERRUPT)
    except Exception:
        traceback.print_exc()
        sys.exit(EXIT_CRASH)


if __name__ == "__main__":  # pragma: no cover
    run()
