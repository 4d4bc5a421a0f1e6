#!/usr/bin/env python3
"""Doc-comment gate for public headers.

Walks the .hpp files of the given source directories (default: src/solver
src/resistance) and reports every *public* declaration -- namespace-scope
function/struct/class, or field/method in a public section -- that is not
documented. "Documented" means a comment line directly above the declaration
(the `///` style of cg.hpp/chain.hpp; plain `//` blocks count too) or a
trailing `///<` / `//` comment on the declaration line itself.

This is a deliberately style-shaped heuristic, not a C++ parser: the repo's
headers are clang-format-shaped, one declaration starting per line. It is the
offline backbone of the CI docs job (scripts/check_docs.sh); Doxygen with
WARN_IF_UNDOCUMENTED runs alongside it where available.

Exit status: 0 when everything is documented, 1 otherwise (one line per
undocumented symbol: file:line: declaration head).
"""

import re
import sys
from pathlib import Path

ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:")
SKIP_PREFIXES = (
    "#", "}", "using ", "friend ", "static_assert", "typedef ",
    "extern ", ");",
)
# namespace / struct / class / enum openers (may also be a one-line fwd decl)
SCOPE_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(namespace|struct|class|enum)\b(\s+class)?\s*"
    r"([A-Za-z_][\w:]*)?")


def strip_strings(line: str) -> str:
    """Removes string/char literals so braces inside them don't confuse the
    brace counter."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def is_comment(line: str) -> bool:
    s = line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")


def check_header(path: Path):
    """Yields (line_number, declaration_head) for undocumented public decls."""
    lines = path.read_text().splitlines()
    # Scope stack entries: ("namespace"|"struct"|"class"|"enum"|"body", public?)
    scope = []
    in_continuation = False
    pending_braces = 0  # net braces of an inline body we are skipping

    def documentable() -> bool:
        if not scope or scope[-1][0] == "enum" or scope[-1][0] == "body":
            return False
        if scope[-1][0] == "namespace":
            return True
        return scope[-1][1]  # public section of a struct/class

    for idx, raw in enumerate(lines):
        line = strip_strings(raw)
        code = line.split("//")[0]
        stripped = code.strip()

        if pending_braces > 0:  # inside a skipped function body
            pending_braces += code.count("{") - code.count("}")
            continue

        m_access = ACCESS_RE.match(code)
        if m_access and scope and scope[-1][0] in ("struct", "class"):
            scope[-1] = (scope[-1][0], m_access.group(1) == "public")
            continue

        if in_continuation:
            # A multi-line declaration head: only its first line needs docs.
            if stripped.endswith(";") or stripped.endswith("{") or "{" in code:
                in_continuation = False
                if stripped.endswith("{") or ("{" in code and "}" not in code):
                    pending_braces = code.count("{") - code.count("}")
            continue

        if not stripped or is_comment(raw.strip()):
            continue
        if any(stripped.startswith(p) for p in SKIP_PREFIXES):
            if stripped.startswith("}"):
                if scope:
                    scope.pop()
            continue
        if scope and scope[-1][0] == "enum":
            # An enumerator has no ';' to end it; treating it as the head of
            # a multi-line declaration would swallow the enum's closing '};'.
            continue

        m_scope = SCOPE_RE.match(code)
        if m_scope and m_scope.group(1) == "namespace":
            if "{" in code:
                scope.append(("namespace", True))
            continue
        if m_scope and "{" in code and ";" not in code.split("{")[0]:
            kind = m_scope.group(1)
            needs_doc = documentable()
            name = m_scope.group(3) or "<anonymous>"
            if needs_doc and not _documented(lines, idx):
                yield idx + 1, f"{kind} {name}"
            # A type nested in a non-documentable scope (e.g. a struct in a
            # private section) keeps its members exempt too: pushed as "body"
            # so a later access specifier cannot resurrect it.
            if kind != "enum" and not (needs_doc or not scope):
                scope.append(("body", False))
            else:
                scope.append((kind if kind != "enum" else "enum",
                              kind == "struct"))
            continue
        if m_scope and stripped.endswith(";"):
            continue  # forward declaration: nothing to document

        # Plain declaration (function, method, field, constructor...).
        if documentable():
            head = stripped.rstrip("{").strip()
            if not _documented(lines, idx):
                yield idx + 1, head[:90]
        # Track where the statement ends / whether an inline body follows.
        if stripped.endswith(";"):
            pass
        elif "{" in code:
            pending_braces = code.count("{") - code.count("}")
        else:
            in_continuation = True


def _documented(lines, idx) -> bool:
    raw = lines[idx]
    if "///<" in raw or re.search(r"\S.*//", raw):
        return True
    j = idx - 1
    # template<...> lines and attribute lines attach to the declaration; the
    # doc comment may sit above them.
    while j >= 0 and re.match(r"^\s*(template\s*<|\[\[)", lines[j]):
        j -= 1
    return j >= 0 and is_comment(lines[j])


def main(argv):
    roots = [Path(p) for p in (argv[1:] or ["src/solver", "src/resistance"])]
    failures = 0
    for root in roots:
        for header in sorted(root.rglob("*.hpp")):
            for line_no, decl in check_header(header):
                print(f"UNDOCUMENTED: {header}:{line_no}: {decl}")
                failures += 1
    if failures:
        print(f"check_public_docs: {failures} undocumented public symbol(s)",
              file=sys.stderr)
        return 1
    print(f"check_public_docs: all public symbols documented in "
          f"{', '.join(str(r) for r in roots)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
