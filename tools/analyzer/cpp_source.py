"""Lightweight C++ source model shared by the analyzer backends.

This is NOT a C++ parser.  It is the minimum structure the fallback
(tokenizer) backend needs to run the three horizon_analyzer rules without
libclang: comment/string stripping that preserves line numbers, brace
matching, and a nesting tracker that attributes every brace-delimited
region to a namespace / class / function.

The comment-side artifacts (``// order:`` justifications and
``horizon-analyzer: allow(...)`` suppressions) are parsed here too,
because BOTH backends consume them from raw text -- libclang does not
surface comments on the AST, and the suppression grammar is a project
convention, not C++.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Comment / string stripping (line-structure preserving)

def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines so
    line numbers in the stripped text match the raw text."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at line end
                    break
                j += 1
            body = text[i:j]
            out.append(quote + " " * max(0, len(body) - 2) +
                       (quote if len(body) >= 2 and body.endswith(quote) else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Suppressions and justifications

ALLOW_RE = re.compile(
    r"//\s*horizon-analyzer:\s*allow\(([a-z-]+)\)(?:\s*(?:--|:)\s*(.*\S))?")

ORDER_COMMENT_RE = re.compile(r"//.*\border:\s*\S")


@dataclass
class SourceFile:
    """One parsed file: raw text, stripped code, line index, allow map."""

    path: str
    rel: str
    raw: str = ""
    raw_lines: list = field(default_factory=list)
    code: str = ""
    code_lines: list = field(default_factory=list)
    # line -> (rule, justification | None); an allow covers its own line
    # and the next line carrying code.
    allows: dict = field(default_factory=dict)
    # offset of the first character of each line (into `code`/`raw`)
    line_starts: list = field(default_factory=list)

    @classmethod
    def load(cls, path: str, rel: str) -> "SourceFile":
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
        return cls.from_text(raw, path, rel)

    @classmethod
    def from_text(cls, raw: str, path: str, rel: str) -> "SourceFile":
        sf = cls(path=path, rel=rel, raw=raw)
        sf.raw_lines = raw.splitlines()
        sf.code = strip_comments_and_strings(raw)
        sf.code_lines = sf.code.splitlines()
        offset = 0
        for line in sf.code.split("\n"):
            sf.line_starts.append(offset)
            offset += len(line) + 1
        for lineno, line in enumerate(sf.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            entry = (m.group(1), m.group(2))
            sf.allows.setdefault(lineno, entry)
            target = lineno + 1
            while target <= len(sf.code_lines) and \
                    not sf.code_lines[target - 1].strip():
                target += 1
            if target <= len(sf.code_lines):
                sf.allows.setdefault(target, entry)
        return sf

    def line_of(self, offset: int) -> int:
        """1-based line number of a character offset."""
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def allowed(self, rule: str, lineno: int):
        entry = self.allows.get(lineno)
        if entry and entry[0] == rule:
            return entry
        return None

    # -- statement-span helpers (justified-atomics) ----------------------

    def statement_span(self, lineno: int) -> tuple:
        """[start, end] 1-based line range of the statement containing
        `lineno`: walk up while the previous code line neither terminates
        a statement (`;`, `{`, `}`, a label `:`) nor is blank, then walk
        down to the first line whose code ends a statement."""
        start = lineno
        while start > 1:
            prev = self.code_lines[start - 2].rstrip() \
                if start - 2 < len(self.code_lines) else ""
            if not prev.strip() or prev.endswith((";", "{", "}", ":", ">")):
                break
            start -= 1
        end = lineno
        while end < len(self.code_lines):
            cur = self.code_lines[end - 1].rstrip()
            if cur.endswith((";", "{", "}")):
                break
            end += 1
        return start, end

    def has_order_comment(self, lineno: int) -> bool:
        """True when the statement containing `lineno` carries an
        adjacent ``// order:`` justification: on any line of the
        statement, or in the contiguous //-comment block directly above
        the statement."""
        start, end = self.statement_span(lineno)
        for ln in range(start, min(end, len(self.raw_lines)) + 1):
            if ORDER_COMMENT_RE.search(self.raw_lines[ln - 1]):
                return True
        ln = start - 1
        while ln >= 1:
            raw = self.raw_lines[ln - 1].strip()
            if not raw.startswith("//"):
                break
            if ORDER_COMMENT_RE.search(raw):
                return True
            ln -= 1
        return False


# --------------------------------------------------------------------------
# Brace matching / scope tracking

def match_brace(code: str, open_pos: int) -> int:
    """Offset of the `}` matching the `{` at `open_pos` (or len(code))."""
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


_SCOPE_HEAD_RE = re.compile(
    r"(?:namespace\s+([\w:]+)\s*$)"
    r"|(?:namespace\s*$)"
    r"|(?:\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"(?:HORIZON_\w+\s*(?:\([^)]*\)\s*)?)?(\w+)\b[^;{=]*$)")


@dataclass
class Scope:
    kind: str       # 'namespace' | 'class' | 'block'
    name: str       # '' for anonymous / plain blocks
    open_pos: int
    close_pos: int


def scopes_at(scopes: list, pos: int) -> list:
    """The scope stack (outermost first) containing `pos`."""
    return [s for s in scopes if s.open_pos < pos < s.close_pos]


def build_scopes(code: str) -> list:
    """All namespace/class/struct scopes in the stripped code, found by
    matching each `{` against the declaration text preceding it."""
    scopes = []
    for i, c in enumerate(code):
        if c != "{":
            continue
        head_start = max(code.rfind(";", 0, i), code.rfind("{", 0, i),
                         code.rfind("}", 0, i)) + 1
        head = code[head_start:i].strip()
        m = _SCOPE_HEAD_RE.search(head)
        if not m:
            continue
        if m.group(2):
            kind, name = "class", m.group(2)
        else:
            kind, name = "namespace", m.group(1) or ""
        scopes.append(Scope(kind, name, i, match_brace(code, i)))
    return scopes


def enclosing_class(scopes: list, pos: int) -> str:
    """Innermost class/struct name containing `pos` ('' when none)."""
    best = ""
    for s in scopes_at(scopes, pos):
        if s.kind == "class" and s.name:
            best = s.name
    return best
