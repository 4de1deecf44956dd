#!/usr/bin/env python3
"""Print the knob census: option-field count and src/core line count.

Usage:
  scripts/census.py [ROOT]     # ROOT defaults to the repository root

Two numbers, both meant to go down over time (ROADMAP item 3):
  * option fields — the data members of every `struct *Options` defined
    under ROOT/src, with a per-struct breakdown. Member functions, nested
    types, `using`/`static` declarations and access specifiers are not
    fields; `int a, b;` is two.
  * src/core LOC — the same figure as `cat src/core/*.h src/core/*.cc | wc -l`.

Informational only: always exits 0 when ROOT/src exists.
"""
import pathlib
import re
import sys


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, keeping newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "'" and i > 0 and text[i - 1].isalnum():
            out.append(c)  # digit separator (50'000), not a char literal
            i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def split_top_level(s, sep):
    """Splits `s` on `sep` outside (), <>, [] and {}."""
    parts, depth, cur = [], 0, []
    for c in s:
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def head_of(stmt):
    """The declaration before its initializer: text up to a top-level = or {."""
    depth = 0
    for i, c in enumerate(stmt):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c in "={" and depth == 0:
            return stmt[:i]
    return stmt


def is_function(head):
    """True when `head` declares a function: a ( outside template brackets."""
    angle = 0
    for c in head:
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif c == "(" and angle == 0:
            return True
    return False


def count_fields(body):
    """Counts data members among the top-level declarations of a struct body."""
    body = re.sub(r"\b(public|private|protected)\s*:", " ", body)
    fields, i, n, start = 0, 0, len(body), 0
    while i < n:
        c = body[i]
        if c == "{":
            head = body[start:i].strip()
            if is_function(head_of(head + "{")) or re.match(r"(struct|class|enum|union)\b", head):
                # Function body or nested type: skip it (and a nested type's `;`).
                i = matching_brace(body, i) + 1
                while i < n and body[i].isspace():
                    i += 1
                if i < n and body[i] == ";":
                    i += 1
                start = i
                continue
            i = matching_brace(body, i) + 1  # brace initializer of a member
            continue
        if c == ";":
            stmt = body[start:i].strip()
            start = i + 1
            if stmt and not re.match(r"(using|typedef|friend|static|static_assert)\b", stmt):
                head = head_of(stmt)
                if not is_function(head):
                    fields += len(split_top_level(head, ","))
        i += 1
    return fields


def option_structs(src):
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc", ".hpp", ".cpp"):
            continue
        text = strip_comments_and_strings(path.read_text())
        for m in re.finditer(r"\bstruct\s+(\w*Options)\s*(?::[^{;]*)?\{", text):
            open_at = m.end() - 1
            body = text[open_at + 1 : matching_brace(text, open_at)]
            yield path.relative_to(src.parent), m.group(1), count_fields(body)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
    src = root / "src"
    if not src.is_dir():
        print(f"census: no src/ under {root}", file=sys.stderr)
        return 2

    rows = list(option_structs(src))
    total = sum(n for _, _, n in rows)
    print("option fields per struct:")
    for path, name, n in rows:
        print(f"  {n:4d}  {name:<20} {path}")
    print(f"option fields: {total}")

    core = sorted(src.glob("core/*.h")) + sorted(src.glob("core/*.cc"))
    loc = sum(p.read_bytes().count(b"\n") for p in core)
    print(f"src/core LOC: {loc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
