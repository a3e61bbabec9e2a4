#!/usr/bin/env python3
"""Check that every pointer to a markdown file resolves.

Two kinds of pointer are checked:

- relative [text](target) links in README.md and docs/*.md, against the
  directory of the file that holds them (absolute URLs and pure in-page
  anchors are skipped);
- every name ending in .md that the code and scripts mention (comments
  included) in src/, bench/, examples/, tests/ and scripts/, against the
  mentioning file's own directory first, then the repo root.

CI runs this in the format job so a rename or a never-written doc can
never silently strand a pointer.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# A path-like word ending in .md, not itself the tail of a longer path
# or URL (so `docs/FORMATS.md` is one name, and `*.md` is none).
MD_NAME = re.compile(r"(?<![\w./*-])(\w[\w./-]*\.md)\b")
SOURCE_DIRS = ("src", "bench", "examples", "tests", "scripts")


def check_doc_links(bad):
    """Relative markdown links in the docs; returns the number checked."""
    checked = 0
    for md in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        if not md.exists():
            bad.append(f"{md.relative_to(ROOT)}: file listed but missing")
            continue
        for match in LINK.finditer(md.read_text(encoding="utf-8")):
            raw = match.group(1)
            if raw.startswith(("http://", "https://", "mailto:")):
                continue
            path = raw.split("#", 1)[0]
            if not path:  # pure in-page anchor like (#section)
                continue
            checked += 1
            if not (md.parent / path).resolve().exists():
                bad.append(f"{md.relative_to(ROOT)}: broken link -> {raw}")
    return checked


def check_source_mentions(bad):
    """.md names mentioned under SOURCE_DIRS; returns the number checked."""
    checked = 0
    for top in SOURCE_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for lineno, line in enumerate(text.splitlines(), start=1):
                for match in MD_NAME.finditer(line):
                    name = match.group(1)
                    checked += 1
                    if not ((path.parent / name).exists()
                            or (ROOT / name).exists()):
                        bad.append(f"{path.relative_to(ROOT)}:{lineno}: "
                                   f"no such file -> {name}")
    return checked


def main() -> int:
    bad = []
    links = check_doc_links(bad)
    mentions = check_source_mentions(bad)
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    print(f"checked {links} relative links in the docs and {mentions} .md "
          "names in the code: all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
