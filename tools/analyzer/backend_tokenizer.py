"""Fallback analysis backend: tokenizer + brace matching, no libclang.

Lowers each file to the backend-neutral IR in ir.py.  Heuristic by
design -- it cannot expand macros or resolve overloads -- but it is
tuned to this codebase's enforced style (horizon_lint guarantees every
lock is a `horizon::MutexLock`, one declaration per line, no raw
std::mutex), which is what makes a text-level protocol checker sound
enough to gate CI.  Where the heuristics must choose between noise and
blindness they choose noise: a false finding is suppressible with a
justified `horizon-analyzer: allow(...)`, a missed deadlock is not.

What it extracts per file:
  * function definitions (lambdas fold into their enclosing function),
    with HORIZON_REQUIRES(...) annotations merged in from declarations;
  * MutexLock acquisitions, canonicalized to `Owner::member` lock
    domains via declared parameter/local types and a global index of
    `Mutex` member declarations;
  * call sites with best-effort receiver typing (cross-TU resolution
    happens in the rule engine);
  * atomic operations with explicit memory orders, and defaulted
    (seq_cst) operations on the hot-path files;
  * switch statements over StatusCode.
"""

from __future__ import annotations

import re

import cpp_source as src
from ir import AtomicSite, CallSite, FileIR, Function, LockAcquire, SwitchSite

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignas", "alignof", "decltype", "new", "delete",
    "static_assert", "case", "default", "goto", "throw", "operator",
    "co_await", "co_return", "co_yield", "using", "typedef", "template",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "noexcept", "requires", "assert",
}

# Files whose atomics are hot-path enough that even a *defaulted*
# (seq_cst) operation needs a justification.  Both backends share this.
HOT_ATOMIC_FILES = frozenset({
    "src/obs/metrics.h",
    "src/obs/metrics.cc",
})

ATOMIC_OPS = (
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set", "clear", "wait",
)

MEMORY_ORDER_RE = re.compile(
    r"\bmemory_order_(relaxed|consume|acquire|release|acq_rel|seq_cst)\b")

MUTEX_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(")

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:horizon\s*::\s*)?Mutex\s+(\w+)\s*;", re.M)

# `Type[&*] name` declarations: the local/param type map feeding lock
# canonicalization and receiver typing.  Deliberately shallow -- a
# one-token type name after stripping const/refs.
DECL_RE = re.compile(
    r"\b(?:const\s+)?([A-Za-z_]\w*(?:\s*::\s*\w+)*)\s*[&*]?\s+"
    r"([a-z]\w*)\s*(?:=|;|,|\)|\()")

MAKE_SMART_RE = re.compile(
    r"\b(?:auto|[\w:]+)\s*[&*]?\s*(\w+)\s*=\s*"
    r"std\s*::\s*make_(?:shared|unique)\s*<\s*([\w:]+)\s*>")

# `unique_ptr<T>/shared_ptr<T> name` declarations: the pointee type is
# what `name->member` means for lock canonicalization.
SMART_DECL_RE = re.compile(
    r"\b(?:unique_ptr|shared_ptr)\s*<\s*([\w:]+)\s*>\s*[&*]?\s*(\w+)\b")

CALL_RE = re.compile(r"(?<![\w:<>~])([A-Za-z_]\w*)\s*\(")

SWITCH_RE = re.compile(r"\bswitch\s*\(")

CASE_RE = re.compile(r"\bcase\s+(?:horizon\s*::\s*)?StatusCode\s*::\s*(k\w+)")

DEFAULT_RE = re.compile(r"\bdefault\s*:")

REQUIRES_RE = re.compile(r"\bHORIZON_REQUIRES\s*\(")

TYPE_STRIP_RE = re.compile(r"^(?:const\s+|volatile\s+)*|\s*[&*]+\s*$")


def _simple_type(text: str) -> str:
    """Last component of a (possibly qualified) type name."""
    text = text.strip()
    text = re.sub(r"[&*\s]+$", "", text)
    text = re.sub(r"^(?:const|volatile)\s+", "", text)
    return text.split("::")[-1].strip()


def _brace_pairs(code: str, begin: int, end: int) -> list:
    """All `{...}` pairs inside [begin, end), innermost discoverable by
    smallest span."""
    pairs = []
    stack = []
    for i in range(begin, end):
        if code[i] == "{":
            stack.append(i)
        elif code[i] == "}" and stack:
            pairs.append((stack.pop(), i))
    return pairs


def _enclosing_block(pairs: list, pos: int, default_end: int) -> int:
    """End offset of the innermost block containing `pos`."""
    best = None
    for (o, c) in pairs:
        if o < pos < c and (best is None or c - o < best[1] - best[0]):
            best = (o, c)
    return best[1] if best else default_end


def _match_paren(code: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


class _Context:
    """Per-function naming context for lock canonicalization."""

    def __init__(self, func_name: str, cls: str, types: dict,
                 local_mutexes: set, mutex_members: dict):
        self.func_name = func_name
        self.cls = cls
        self.types = types               # var name -> simple type name
        self.local_mutexes = local_mutexes
        self.mutex_members = mutex_members

    def canon_lock(self, expr: str) -> str:
        expr = expr.strip()
        expr = re.sub(r"^this\s*->\s*", "", expr)
        m = re.match(r"^(.*?)(?:\.|->)\s*(\w+)$", expr)
        if m:
            obj, member = m.group(1), m.group(2)
            obj_name = re.findall(r"\w+", obj)[-1] if re.findall(r"\w+", obj) \
                else ""
            obj_type = self.types.get(obj_name, "")
            if obj_type:
                return f"{obj_type}::{member}"
            owners = self.mutex_members.get(member, [])
            if len(owners) == 1:
                return f"{owners[0]}::{member}"
            return f"?::{member}"
        if expr in self.local_mutexes:
            return f"{self.func_name}::{expr}"
        if self.cls:
            return f"{self.cls}::{expr}"
        owners = self.mutex_members.get(expr, [])
        if len(owners) == 1:
            return f"{owners[0]}::{expr}"
        return expr


def collect_mutex_members(files: list) -> dict:
    """Pass 1: class name -> Mutex member declarations, inverted to
    member -> [owning classes] (sorted for determinism)."""
    owners = {}
    for sf in files:
        scopes = src.build_scopes(sf.code)
        for m in MUTEX_MEMBER_RE.finditer(sf.code):
            cls = src.enclosing_class(scopes, m.start(1))
            if not cls:
                continue
            owners.setdefault(m.group(1), set()).add(cls)
    return {k: sorted(v) for k, v in owners.items()}


def collect_requires(files: list) -> dict:
    """Pass 1: HORIZON_REQUIRES annotations on declarations AND
    definitions, keyed by simple function name.  The canonical domain is
    resolved against the annotated declaration's own parameter list."""
    out = {}
    for sf in files:
        code = sf.code
        for m in REQUIRES_RE.finditer(code):
            args_end = _match_paren(code, m.end() - 1)
            args = code[m.end():args_end]
            # Walk back over ') const' etc. to the parameter list.
            i = m.start() - 1
            while i > 0 and (code[i].isspace() or
                             code[i - 4:i + 1].endswith("const")):
                i -= 5 if code[i - 4:i + 1].endswith("const") else 1
            if i <= 0 or code[i] != ")":
                continue
            depth = 0
            j = i
            while j >= 0:
                if code[j] == ")":
                    depth += 1
                elif code[j] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            params = code[j + 1:i]
            name_m = re.search(r"(\w+)\s*$", code[:j])
            if not name_m:
                continue
            types = {}
            for dm in DECL_RE.finditer(params):
                types[dm.group(2)] = _simple_type(dm.group(1))
            ctx = _Context(name_m.group(1), "", types, set(), {})
            domains = [ctx.canon_lock(a) for a in args.split(",") if a.strip()]
            out.setdefault(name_m.group(1), set()).update(domains)
    return out


def _function_defs(sf: src.SourceFile, scopes: list) -> list:
    """(name, qualname, head_start, head, body_begin, body_end) for every
    plausible function definition."""
    code = sf.code
    defs = []
    class_spans = [(s.open_pos, s.close_pos) for s in scopes]
    for i, c in enumerate(code):
        if c != "{":
            continue
        # Skip braces that open a namespace/class scope.
        if any(o == i for (o, _) in class_spans):
            continue
        head_start = max(code.rfind(";", 0, i), code.rfind("{", 0, i),
                         code.rfind("}", 0, i)) + 1
        head = code[head_start:i].strip()
        if not head or "(" not in head:
            continue
        if head.count("(") != head.count(")"):
            continue  # mid-expression brace (lambda argument, init list)
        # Constructor initializer lists: cut at the `:` that follows the
        # parameter list (but not `::`).
        first_paren = head.index("(")
        name_m = re.search(r"([\w~]+)\s*$", head[:first_paren])
        if not name_m:
            continue
        name = name_m.group(1).lstrip("~")
        if name in KEYWORDS or name.startswith("HORIZON"):
            continue
        before = head[:name_m.start(1)].rstrip()
        if before.endswith((".", "->", ",", "(", "=", "&", "|", "!")):
            continue  # a call or expression, not a definition
        if re.search(r"=\s*$", before):
            continue
        qual = name
        qm = re.search(r"(\w+)\s*::\s*$", before)
        if qm:
            qual = f"{qm.group(1)}::{name}"
        else:
            cls = src.enclosing_class(scopes, i)
            if cls:
                qual = f"{cls}::{name}"
        body_end = src.match_brace(code, i)
        defs.append((name, qual, head_start, head, i, body_end))
    # Keep only outermost definitions (a lambda body inside a function
    # matched above is dropped here so it folds into its parent).
    outer = []
    for d in defs:
        if not any(o[4] < d[4] and d[5] <= o[5] for o in defs if o is not d):
            outer.append(d)
    return outer


def _local_types(head: str, body: str) -> tuple:
    """(types, local_mutexes): declared types of params+locals, and the
    set of function-local Mutex variable names."""
    types = {}
    first = head.find("(")
    params = head[first:] if first >= 0 else ""
    for m in DECL_RE.finditer(params):
        types[m.group(2)] = _simple_type(m.group(1))
    for m in DECL_RE.finditer(body):
        types.setdefault(m.group(2), _simple_type(m.group(1)))
    for m in MAKE_SMART_RE.finditer(body):
        types[m.group(1)] = _simple_type(m.group(2))
    for m in SMART_DECL_RE.finditer(params + body):
        types[m.group(2)] = _simple_type(m.group(1))
    local_mutexes = set()
    for m in re.finditer(r"\bMutex\s+(\w+)\s*;", body):
        local_mutexes.add(m.group(1))
    return types, local_mutexes


def _extract_calls(sf: src.SourceFile, body_begin: int, body_end: int,
                   types: dict) -> list:
    code = sf.code
    calls = []
    for m in CALL_RE.finditer(code, body_begin, body_end):
        callee = m.group(1)
        if callee in KEYWORDS or callee.startswith("HORIZON"):
            continue
        j = m.start() - 1
        while j >= 0 and code[j].isspace():
            j -= 1
        has_receiver = False
        receiver_type = ""
        if j >= 0 and (code[j] == "." or code[j - 1:j + 1] == "->"):
            has_receiver = True
            k = j - (1 if code[j] == "." else 2)
            while k >= 0 and code[k].isspace():
                k -= 1
            rm = re.search(r"(\w+)$", code[:k + 1])
            if rm:
                receiver_type = types.get(rm.group(1), "")
        calls.append(CallSite(callee=callee, lineno=sf.line_of(m.start()),
                              offset=m.start(), receiver_type=receiver_type,
                              has_receiver=has_receiver))
    return calls


def _extract_locks(sf: src.SourceFile, fn: Function, body_begin: int,
                   body_end: int, ctx: _Context) -> None:
    code = sf.code
    pairs = _brace_pairs(code, body_begin, body_end + 1)
    for m in MUTEX_LOCK_RE.finditer(code, body_begin, body_end):
        open_paren = code.index("(", m.start())
        close_paren = _match_paren(code, open_paren)
        expr = code[open_paren + 1:close_paren]
        domain = ctx.canon_lock(expr)
        end = _enclosing_block(pairs, m.start(), body_end)
        fn.acquires.append(LockAcquire(domain=domain,
                                       lineno=sf.line_of(m.start()),
                                       begin=m.start(), end=end))
    for domain in fn.requires:
        fn.acquires.append(LockAcquire(domain=domain,
                                       lineno=fn.lineno,
                                       begin=body_begin, end=body_end,
                                       from_requires=True))
    # Nesting + held calls.
    for outer in fn.acquires:
        for inner in fn.acquires:
            if inner is outer or inner.from_requires:
                continue
            if outer.begin < inner.begin < outer.end:
                fn.nested.append((outer.domain, inner))
        for call in fn.calls:
            if outer.begin < call.offset < outer.end:
                fn.held_calls.append((outer.domain, call))


def _extract_atomics(sf: src.SourceFile, fir: FileIR, hot: bool) -> None:
    code_lines = sf.code_lines
    for lineno, line in enumerate(code_lines, start=1):
        for m in MEMORY_ORDER_RE.finditer(line):
            fir.atomics.append(AtomicSite(lineno=lineno, order=m.group(1),
                                          explicit=True))
    if not hot:
        return
    # Defaulted (seq_cst) operations on hot-path atomics: a known atomic
    # member op whose argument list names no memory_order.
    op_re = re.compile(r"(?:\.|->)\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")
    code = sf.code
    for m in op_re.finditer(code):
        close = _match_paren(code, m.end() - 1)
        args = code[m.end():close]
        if "memory_order" in args:
            continue
        op = m.group(1)
        # `clear()` / `wait()` on non-atomics are common; require the op
        # to be an unambiguous atomic operation when argument-free.
        if op in ("clear", "wait") and not args.strip():
            continue
        fir.atomics.append(AtomicSite(lineno=sf.line_of(m.start()),
                                      order="seq_cst", explicit=False, op=op))


def _extract_switches(sf: src.SourceFile, fir: FileIR) -> None:
    code = sf.code
    for m in SWITCH_RE.finditer(code):
        open_paren = code.index("(", m.start())
        close_paren = _match_paren(code, open_paren)
        brace = code.find("{", close_paren)
        if brace == -1:
            continue
        end = src.match_brace(code, brace)
        body = code[brace:end]
        cases = CASE_RE.findall(body)
        if not cases:
            continue
        fir.switches.append(SwitchSite(lineno=sf.line_of(m.start()),
                                       cases=cases,
                                       has_default=bool(
                                           DEFAULT_RE.search(body))))


def lower_file(sf: src.SourceFile, mutex_members: dict, requires_map: dict,
               hot_atomics: bool) -> FileIR:
    fir = FileIR(rel=sf.rel)
    scopes = src.build_scopes(sf.code)
    for (name, qual, _head_start, head, body_begin, body_end) in \
            _function_defs(sf, scopes):
        fn = Function(name=name, qualname=qual, rel=sf.rel,
                      lineno=sf.line_of(body_begin))
        body = sf.code[body_begin:body_end]
        types, local_mutexes = _local_types(head, body)
        cls = qual.split("::")[0] if "::" in qual else \
            src.enclosing_class(scopes, body_begin)
        ctx = _Context(name, cls, types, local_mutexes, mutex_members)
        # REQUIRES from this head plus any annotated declaration.
        req = set()
        for rm in REQUIRES_RE.finditer(head):
            args_end = _match_paren(head, rm.end() - 1)
            for a in head[rm.end():args_end].split(","):
                if a.strip():
                    req.add(ctx.canon_lock(a))
        req.update(requires_map.get(name, set()))
        fn.requires = sorted(req)
        fn.calls = _extract_calls(sf, body_begin, body_end, types)
        _extract_locks(sf, fn, body_begin, body_end, ctx)
        fir.functions.append(fn)
    _extract_atomics(sf, fir, hot_atomics)
    _extract_switches(sf, fir)
    return fir
