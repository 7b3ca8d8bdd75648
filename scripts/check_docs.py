#!/usr/bin/env python3
"""Docs consistency checker, run by scripts/ci.sh.

Two checks, both over the human-facing documentation set (README.md and
docs/*.md, plus any root-level markdown they link to):

1. Link integrity: every relative markdown link `[text](path)` or
   `[text](path#anchor)` must point at an existing file, and when an
   anchor is given, the target file must contain a heading that
   GitHub-slugifies to that anchor.

2. Formulation coverage: every public builder declared in
   src/strqubo/builders.hpp (`qubo::QuboModel build_*`) must appear by
   name in docs/FORMULATIONS.md, so the derivation catalog cannot
   silently fall behind the API.

3. Service coverage: every public class/struct and free function declared
   in src/service/*.hpp must appear by name in docs/ARCHITECTURE.md, so
   the serving-layer docs cannot silently fall behind the API.

4. Conformance coverage: every public class/struct and free function
   declared in src/conformance/*.hpp must appear by name in
   docs/conformance.md, so the encoding-proof kit's docs cannot silently
   fall behind the API.

5. Server coverage: every public class/struct and free function declared
   in src/server/*.hpp must appear by name in docs/server.md, so the
   operator's manual cannot silently fall behind the daemon's API.

6. Incremental coverage: every public class/struct and free function
   declared in src/smtlib/incremental.hpp must appear by name in
   docs/incremental.md, so the hot re-solve contract (invalidation rules,
   warm-start semantics) cannot silently fall behind the API.

7. Caching coverage: every public class/struct and free function declared
   in src/canon/*.hpp must appear by name in docs/caching.md, so the
   cache-layer catalog (keys, scopes, invalidation, tenant sharing)
   cannot silently fall behind the canonicalizer/answer-cache API.

8. One scheduler: no file under src/, tests/, bench/ or examples/ may
   use `#pragma omp`, include `<omp.h>` or link `OpenMP::`. The
   SolveService worker pool is the only parallelism; samplers run their
   reads on the calling thread.

9. Telemetry sources: every table row in docs/telemetry.md that names a
    src/ file must have each of its ticked metric names appear as a
    string literal in each file it names. A shorthand such as `.misses`
    after `service.answer.hits` stands for `service.answer.misses` (the
    row's first full name with its last component replaced). A
    `<placeholder>` name such as `service.winner.<member>` is matched on
    its literal prefix (`"service.winner.`). A cache metric
    `<prefix>.<event>`, where
    `<event>` is one that util::LruCache publishes (read from
    src/util/lru_cache.hpp), is matched on the literal `"<prefix>"` the
    file builds its cache with. A counter deleted from the code, or moved
    to another file, therefore fails the build until its doc row follows.

10. One solve path: under src/ outside src/anneal/, the exact presolve
    call `anneal::presolve(` and a `ReverseAnnealer` construction may each
    appear in one file only: the shared solve stages in
    src/strqubo/solver.cpp, which the driver, the service and the daemon
    all call. Comment lines are skipped, so prose may still name them.

11. Deleted names stay deleted: no file under src/, tests/, bench/ or
    examples/, and no documentation file, may mention
    - `route::`, `tenant_routing` or `docs/routing.md`. The escalation
      ladder tries one rung at a time, so a job holds one worker by
      construction and the adaptive router it replaced is gone;
    - a `route.*` metric name (`engine.route.*` is another prefix): the
      router and the service pipelines counted the last of them;
    - `submit_pipeline` or `PipelineJob`. A service job yields one
      verdict and runs no caller code on completion; the paper's
      sequential combination is strqubo::Pipeline, in-process;
    - `SweepMode` or `sweep_mode`. SimulatedAnnealer::sample always runs
      the batched kernel, so there is no sweep substrate to choose.
    No file under src/ may mention `anneal_read_reference`: the
    pre-overhaul kernel is the hot-path bench's baseline and lives in
    bench/hotpath_bench.cpp.

12. One LRU: no file under src/ other than src/util/lru_cache.hpp may
    use `std::list<` or `.splice(`. Every cache layer is a util::LruCache,
    which owns the recency list, the index, the caps and the metrics, so
    LRU bookkeeping is written once. Comment lines are skipped.

13. Count once: under src/ outside src/telemetry/, no statement may intern
    a metric and use it at once (`telemetry::counter|gauge|histogram(...)`
    followed by `.add(`, `.set(` or `.record(` before the statement's
    `;`, on one line or across several). Interning takes the registry
    mutex, so each site holds its handle: a function-local or member
    `static const` handle, or a telemetry::Tally for a fact a stats()
    reports. Comment lines are skipped.

Also prints the line count of src/, which the roadmap tracks next to the
benchmarks.

Exits non-zero with one line per problem.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
BUILDER_RE = re.compile(r"qubo::QuboModel\s+(build_\w+)\s*\(")
# Public service API surface: top-level types, and free functions declared
# at column 0 (member functions are indented and thus excluded).
SERVICE_TYPE_RE = re.compile(r"^(?:class|struct)\s+(\w+)", re.MULTILINE)
SERVICE_FUNC_RE = re.compile(
    r"^[A-Za-z_][\w:<>, ]*\s+(\w+)\s*\(", re.MULTILINE
)

OPENMP_RE = re.compile(r"#\s*pragma\s+omp\b|<omp\.h>|OpenMP::")
DELETED_NAMES = {
    "the adaptive router is gone; the escalation ladder replaced it":
        re.compile(r"route::|tenant_routing|docs/routing\.md"),
    "no route.* metric remains; the router and the service pipelines "
    "that counted them are gone": re.compile(r"(?<![\w.])route\.[a-z_]"),
    "the service's pipeline job kind is gone; strqubo::Pipeline chains "
    "stages in-process": re.compile(r"\bsubmit_pipeline\b|\bPipelineJob\b"),
    "SimulatedAnnealer always runs the batched kernel; the sweep-substrate "
    "switch is gone": re.compile(r"\bSweepMode\b|\bsweep_mode\b"),
}
SRC_DELETED_NAMES = {
    "the pre-overhaul kernel is a bench baseline; it lives in "
    "bench/hotpath_bench.cpp": re.compile(r"\banneal_read_reference\b"),
}
ONE_PATH_RES = {
    "anneal::presolve(": re.compile(r"anneal::presolve\("),
    "ReverseAnnealer construction": re.compile(
        r"\bReverseAnnealer\b(?:\s+\w+)?\s*[({]"
        r"|<\s*(?:anneal::)?ReverseAnnealer\s*>"
    ),
}
TICKED_RE = re.compile(r"`([^`]+)`")
LRU_HEADER = REPO / "src" / "util" / "lru_cache.hpp"
LRU_RE = re.compile(r"std::list<|\.splice\(")
LRU_EVENT_RE = re.compile(r'metric_name\(metric_prefix, "(\w+)"\)')
CODE_DIRS = ("src", "tests", "bench", "examples")
INTERN_AND_USE_RE = re.compile(
    r"telemetry::(?:counter|gauge|histogram)\([^;]*?\)"
    r"\s*\.(?:add|set|record)\("
)


def files_under(top: str) -> list:
    return sorted(p for p in (REPO / top).rglob("*") if p.is_file())


def github_slug(heading: str) -> str:
    """GitHub's heading → anchor slug rule (close enough for our docs)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    body = CODE_FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(h) for h in HEADING_RE.findall(body)}


def check_links() -> list:
    errors = []
    for doc in DOC_FILES:
        body = CODE_FENCE_RE.sub("", doc.read_text(encoding="utf-8"))
        for target in LINK_RE.findall(body):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            path_part, _, anchor = target.partition("#")
            dest = doc if not path_part else (doc.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
                continue
            if anchor and dest.suffix == ".md" and anchor not in anchors_of(dest):
                errors.append(
                    f"{doc.relative_to(REPO)}: missing anchor -> {target}"
                )
    return errors


def check_formulation_coverage() -> list:
    header = (REPO / "src/strqubo/builders.hpp").read_text(encoding="utf-8")
    catalog = (REPO / "docs/FORMULATIONS.md").read_text(encoding="utf-8")
    return [
        f"docs/FORMULATIONS.md: public op `{name}` is undocumented"
        for name in sorted(set(BUILDER_RE.findall(header)))
        if name not in catalog
    ]


def check_service_coverage() -> list:
    doc = (REPO / "docs/ARCHITECTURE.md").read_text(encoding="utf-8")
    names = set()
    for header in sorted((REPO / "src/service").glob("*.hpp")):
        body = header.read_text(encoding="utf-8")
        names.update(SERVICE_TYPE_RE.findall(body))
        names.update(SERVICE_FUNC_RE.findall(body))
    return [
        f"docs/ARCHITECTURE.md: service API `{name}` is undocumented"
        for name in sorted(names)
        if name not in doc
    ]


def check_conformance_coverage() -> list:
    doc = (REPO / "docs/conformance.md").read_text(encoding="utf-8")
    names = set()
    for header in sorted((REPO / "src/conformance").glob("*.hpp")):
        body = header.read_text(encoding="utf-8")
        names.update(SERVICE_TYPE_RE.findall(body))
        names.update(SERVICE_FUNC_RE.findall(body))
    return [
        f"docs/conformance.md: conformance API `{name}` is undocumented"
        for name in sorted(names)
        if name not in doc
    ]


def check_server_coverage() -> list:
    doc = (REPO / "docs/server.md").read_text(encoding="utf-8")
    names = set()
    for header in sorted((REPO / "src/server").glob("*.hpp")):
        body = header.read_text(encoding="utf-8")
        names.update(SERVICE_TYPE_RE.findall(body))
        names.update(SERVICE_FUNC_RE.findall(body))
    return [
        f"docs/server.md: server API `{name}` is undocumented"
        for name in sorted(names)
        if name not in doc
    ]


def check_incremental_coverage() -> list:
    doc = (REPO / "docs/incremental.md").read_text(encoding="utf-8")
    body = (REPO / "src/smtlib/incremental.hpp").read_text(encoding="utf-8")
    names = set(SERVICE_TYPE_RE.findall(body))
    names.update(SERVICE_FUNC_RE.findall(body))
    return [
        f"docs/incremental.md: incremental API `{name}` is undocumented"
        for name in sorted(names)
        if name not in doc
    ]


def check_caching_coverage() -> list:
    doc = (REPO / "docs/caching.md").read_text(encoding="utf-8")
    names = set()
    for header in sorted((REPO / "src/canon").glob("*.hpp")):
        body = header.read_text(encoding="utf-8")
        names.update(SERVICE_TYPE_RE.findall(body))
        names.update(SERVICE_FUNC_RE.findall(body))
    return [
        f"docs/caching.md: canon API `{name}` is undocumented"
        for name in sorted(names)
        if name not in doc
    ]


def check_one_scheduler() -> list:
    errors = []
    for top in CODE_DIRS:
        for path in files_under(top):
            text = path.read_text(encoding="utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), 1):
                if OPENMP_RE.search(line):
                    errors.append(
                        f"{path.relative_to(REPO)}:{number}: OpenMP is not "
                        "allowed; the SolveService pool is the only scheduler"
                    )
    return errors


def check_deleted_names() -> list:
    errors = []
    paths = [p for top in CODE_DIRS for p in files_under(top)] + DOC_FILES
    for path in paths:
        names = DELETED_NAMES
        if path.is_relative_to(REPO / "src"):
            names = {**DELETED_NAMES, **SRC_DELETED_NAMES}
        text = path.read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), 1):
            for reason, pattern in names.items():
                if pattern.search(line):
                    errors.append(
                        f"{path.relative_to(REPO)}:{number}: {reason}")
    return errors


def check_one_solve_path() -> list:
    errors = []
    for name, pattern in ONE_PATH_RES.items():
        users = sorted(
            str(path.relative_to(REPO))
            for path in files_under("src")
            if not path.is_relative_to(REPO / "src" / "anneal")
            and any(
                pattern.search(line)
                for line in path.read_text(encoding="utf-8").splitlines()
                if not line.lstrip().startswith("//")
            )
        )
        if len(users) > 1:
            errors.append(
                f"{name} appears in {len(users)} files under src/ "
                f"({', '.join(users)}); the solve stages belong in one file"
            )
    return errors


def check_one_lru() -> list:
    errors = []
    for path in files_under("src"):
        if path == LRU_HEADER:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), 1):
            if LRU_RE.search(line) and not line.lstrip().startswith("//"):
                errors.append(
                    f"{path.relative_to(REPO)}:{number}: LRU bookkeeping "
                    "belongs in src/util/lru_cache.hpp; use util::LruCache"
                )
    return errors


def check_count_once() -> list:
    errors = []
    for path in files_under("src"):
        if path.is_relative_to(REPO / "src" / "telemetry"):
            continue
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        code = "\n".join(
            "" if line.lstrip().startswith("//") else line for line in lines
        )
        for match in INTERN_AND_USE_RE.finditer(code):
            number = code.count("\n", 0, match.start()) + 1
            errors.append(
                f"{path.relative_to(REPO)}:{number}: a metric is interned "
                "and used in one statement; hold a static const handle or a "
                "telemetry::Tally"
            )
    return errors


def row_names(cell: str) -> list:
    """The metric names one catalog row lists, shorthands expanded."""
    names = []
    for name in TICKED_RE.findall(cell):
        if name.startswith(".") and names:
            name = names[0].rpartition(".")[0] + name
        names.append(name)
    return names


def source_literals(name: str, lru_events: list) -> list:
    """The string literals any one of which shows `name` is emitted."""
    if "<" in name:
        return ['"' + name.split("<")[0]]
    literals = [f'"{name}"']
    prefix, _, event = name.rpartition(".")
    if prefix and event in lru_events:
        literals.append(f'"{prefix}"')
    return literals


def check_telemetry_sources() -> list:
    errors = []
    lru_events = LRU_EVENT_RE.findall(LRU_HEADER.read_text(encoding="utf-8"))
    lines = (REPO / "docs/telemetry.md").read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if not line.startswith("|"):
            continue
        cells = line.strip().strip("|").split("|")
        names = row_names(cells[0])
        sources = [
            REPO / "src" / path
            for cell in cells[1:]
            for path in TICKED_RE.findall(cell)
            if (REPO / "src" / path).is_file()
        ]
        for name in names:
            literals = source_literals(name, lru_events)
            for source in sources:
                text = source.read_text(encoding="utf-8")
                if not any(literal in text for literal in literals):
                    errors.append(
                        f"docs/telemetry.md:{number}: `{name}` is not "
                        f"emitted in {source.relative_to(REPO)}"
                    )
    return errors


def src_line_count() -> int:
    return sum(
        len(path.read_text(encoding="utf-8", errors="replace").splitlines())
        for path in files_under("src")
    )


def main() -> int:
    errors = (
        check_links()
        + check_formulation_coverage()
        + check_service_coverage()
        + check_conformance_coverage()
        + check_server_coverage()
        + check_incremental_coverage()
        + check_caching_coverage()
        + check_one_scheduler()
        + check_telemetry_sources()
        + check_one_solve_path()
        + check_deleted_names()
        + check_one_lru()
        + check_count_once()
    )
    for err in errors:
        print(f"check_docs: {err}", file=sys.stderr)
    names = ", ".join(str(d.relative_to(REPO)) for d in DOC_FILES)
    if errors:
        print(f"check_docs: FAILED ({len(errors)} problem(s))", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({names})")
    print(f"check_docs: src/ is {src_line_count()} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
