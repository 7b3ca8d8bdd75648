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

7. Route coverage: every public class/struct and free function declared
   in src/route/*.hpp must appear by name in docs/routing.md, so the
   adaptive router's docs (decision lanes, confidence gates, replay
   harness) cannot silently fall behind the API.

8. Caching coverage: every public class/struct and free function declared
   in src/canon/*.hpp must appear by name in docs/caching.md, so the
   cache-layer catalog (keys, scopes, invalidation, tenant sharing)
   cannot silently fall behind the canonicalizer/answer-cache API.

9. One scheduler: no file under src/, tests/, bench/ or examples/ may
   use `#pragma omp`, include `<omp.h>` or link `OpenMP::`. The
   SolveService worker pool is the only parallelism; samplers run their
   reads on the calling thread.

10. Telemetry sources: every table row in docs/telemetry.md that names a
    src/ file must have its metric name appear as a string literal in
    each file it names. A `<placeholder>` name such as
    `service.winner.<member>` is matched on its literal prefix
    (`"service.winner.`). A counter deleted from the code, or moved to
    another file, therefore fails the build until its doc row follows.

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
TICKED_RE = re.compile(r"`([^`]+)`")
CODE_DIRS = ("src", "tests", "bench", "examples")


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


def check_route_coverage() -> list:
    doc = (REPO / "docs/routing.md").read_text(encoding="utf-8")
    names = set()
    for header in sorted((REPO / "src/route").glob("*.hpp")):
        body = header.read_text(encoding="utf-8")
        names.update(SERVICE_TYPE_RE.findall(body))
        names.update(SERVICE_FUNC_RE.findall(body))
    return [
        f"docs/routing.md: route API `{name}` is undocumented"
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


def check_telemetry_sources() -> list:
    errors = []
    lines = (REPO / "docs/telemetry.md").read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if not line.startswith("|"):
            continue
        cells = line.strip().strip("|").split("|")
        names = TICKED_RE.findall(cells[0])
        sources = [
            REPO / "src" / path
            for cell in cells[1:]
            for path in TICKED_RE.findall(cell)
            if (REPO / "src" / path).is_file()
        ]
        if not names or not sources:
            continue
        name = names[0]
        literal = '"' + name.split("<")[0] if "<" in name else f'"{name}"'
        for source in sources:
            if literal not in source.read_text(encoding="utf-8"):
                errors.append(
                    f"docs/telemetry.md:{number}: `{name}` is not emitted "
                    f"in {source.relative_to(REPO)}"
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
        + check_route_coverage()
        + check_caching_coverage()
        + check_one_scheduler()
        + check_telemetry_sources()
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
