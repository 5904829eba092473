"""libclang analysis backend for horizon_analyzer.

Parses real ASTs via ``clang.cindex`` when the Python bindings and a
libclang shared library are installed (nightly CI installs
``python3-clang``; the dev container typically does not, in which case
``--backend auto`` falls back to the tokenizer backend).

Division of labour:

* **AST-derived** (where precision pays): function definitions,
  ``MutexLock`` acquisitions with exact owning-class resolution of the
  locked member, and call sites with resolved receiver types.
* **Text-derived, shared with the tokenizer backend**: atomics sites,
  StatusCode switches, ``HORIZON_REQUIRES`` annotations.  These encode *project comment/markup conventions*
  (``// order:`` justifications, suppressions) that libclang does not
  model, and sharing one implementation keeps the two backends
  byte-identical on those rules.

``strip_comments_and_strings`` is length-preserving, so libclang byte
offsets are directly comparable with stripped-code offsets -- the
held-region bookkeeping is identical across backends.
"""

from __future__ import annotations

import json
import os
import shlex

import backend_tokenizer as tok
import cpp_source as src
from ir import CallSite, FileIR, Function, LockAcquire


def available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


def _compile_args(entry: dict) -> list:
    if "arguments" in entry:
        args = list(entry["arguments"])[1:]
    else:
        args = shlex.split(entry.get("command", ""))[1:]
    keep = []
    skip_next = False
    for a in args:
        if skip_next:
            skip_next = False
            continue
        if a in ("-o", "-c"):
            skip_next = a == "-o"
            continue
        if a.endswith((".cc", ".cpp", ".o")):
            continue
        keep.append(a)
    return keep


def _rel(root: str, path: str) -> str:
    try:
        return os.path.relpath(os.path.realpath(path),
                               os.path.realpath(root))
    except ValueError:
        return path


class _ClangLowerer:
    def __init__(self, root: str, sources: dict):
        import clang.cindex as ci
        self.ci = ci
        self.root = root
        self.sources = sources          # rel -> SourceFile
        self.firs = {}                  # rel -> FileIR
        self.seen_functions = set()     # (rel, lineno, qualname)
        self.requires_map = tok.collect_requires(list(sources.values()))

    def fir_for(self, rel: str) -> FileIR:
        if rel not in self.firs:
            fir = FileIR(rel=rel)
            sf = self.sources.get(rel)
            if sf is not None:
                hot = rel in tok.HOT_ATOMIC_FILES
                tok._extract_atomics(sf, fir, hot)
                tok._extract_switches(sf, fir)
            self.firs[rel] = fir
        return self.firs[rel]

    def lower_tu(self, tu) -> None:
        ci = self.ci
        fn_kinds = (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                    ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR)

        def walk(cursor):
            for child in cursor.get_children():
                loc = child.location
                if loc.file is None:
                    walk(child)
                    continue
                rel = _rel(self.root, loc.file.name)
                if rel.startswith("..") or rel not in self.sources:
                    continue
                if child.kind in fn_kinds and child.is_definition():
                    self._lower_function(child, rel)
                else:
                    walk(child)

        walk(tu.cursor)

    def _lower_function(self, cursor, rel: str) -> None:
        ci = self.ci
        name = cursor.spelling
        parent = cursor.semantic_parent
        qual = name
        if parent is not None and parent.kind in (
                ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL):
            qual = f"{parent.spelling}::{name}"
        lineno = cursor.location.line
        key = (rel, lineno, qual)
        if key in self.seen_functions:
            return
        self.seen_functions.add(key)
        fn = Function(name=name, qualname=qual, rel=rel, lineno=lineno)
        fn.requires = sorted(self.requires_map.get(name, set()))
        body_begin = cursor.extent.start.offset
        body_end = cursor.extent.end.offset
        self._collect(cursor, rel, fn)
        for domain in fn.requires:
            fn.acquires.append(LockAcquire(domain=domain, lineno=lineno,
                                           begin=body_begin, end=body_end,
                                           from_requires=True))
        for outer in fn.acquires:
            for inner in fn.acquires:
                if inner is outer or inner.from_requires:
                    continue
                if outer.begin < inner.begin < outer.end:
                    fn.nested.append((outer.domain, inner))
            for call in fn.calls:
                if outer.begin < call.offset < outer.end:
                    fn.held_calls.append((outer.domain, call))
        self.fir_for(rel).functions.append(fn)

    def _collect(self, cursor, rel: str, fn: Function) -> None:
        ci = self.ci
        for child in cursor.walk_preorder():
            if child.kind == ci.CursorKind.VAR_DECL and \
                    "MutexLock" in child.type.spelling:
                domain = self._lock_domain(child, fn)
                end = self._enclosing_end(child, fn)
                fn.acquires.append(LockAcquire(
                    domain=domain, lineno=child.location.line,
                    begin=child.extent.start.offset, end=end))
            elif child.kind == ci.CursorKind.CALL_EXPR and child.spelling:
                receiver_type = ""
                has_receiver = False
                kids = list(child.get_children())
                if kids and kids[0].kind == ci.CursorKind.MEMBER_REF_EXPR:
                    inner = list(kids[0].get_children())
                    if inner:
                        has_receiver = True
                        t = inner[0].type.spelling
                        receiver_type = t.split("<")[0].split("::")[-1] \
                            .replace("*", "").replace("&", "").strip()
                fn.calls.append(CallSite(
                    callee=child.spelling, lineno=child.location.line,
                    offset=child.extent.start.offset,
                    receiver_type=receiver_type, has_receiver=has_receiver))

    def _lock_domain(self, var_decl, fn: Function) -> str:
        ci = self.ci
        for ref in var_decl.walk_preorder():
            if ref.kind == ci.CursorKind.MEMBER_REF_EXPR:
                referenced = ref.referenced
                if referenced is not None and \
                        referenced.semantic_parent is not None:
                    return (f"{referenced.semantic_parent.spelling}::"
                            f"{referenced.spelling}")
            if ref.kind == ci.CursorKind.DECL_REF_EXPR and \
                    "Mutex" in ref.type.spelling and \
                    "MutexLock" not in ref.type.spelling:
                return f"{fn.name}::{ref.spelling}"
        return "?::unresolved"

    def _enclosing_end(self, var_decl, fn: Function) -> int:
        # Nearest enclosing compound statement bounds the held region.
        node = var_decl
        while node is not None:
            node = node.semantic_parent if not hasattr(node, "lexical_parent") \
                else node.lexical_parent
            if node is None:
                break
            if node.kind == self.ci.CursorKind.COMPOUND_STMT:
                return node.extent.end.offset
        return var_decl.extent.end.offset


def lower_program(root: str, compdb_path: str, sources: dict):
    """rel->SourceFile -> {rel: FileIR}; raises on any clang failure so
    the driver can fall back."""
    import clang.cindex as ci
    with open(compdb_path, "r", encoding="utf-8") as f:
        compdb = json.load(f)
    index = ci.Index.create()
    lowerer = _ClangLowerer(root, sources)
    parsed = set()
    for entry in sorted(compdb, key=lambda e: e.get("file", "")):
        path = entry.get("file", "")
        if not path.endswith((".cc", ".cpp")):
            continue
        rel = _rel(root, os.path.join(entry.get("directory", root), path)
                   if not os.path.isabs(path) else path)
        if rel.startswith("..") or rel in parsed or rel not in sources:
            continue
        parsed.add(rel)
        tu = index.parse(os.path.join(root, rel),
                         args=_compile_args(entry))
        lowerer.lower_tu(tu)
    # Headers and any sources the compdb missed still contribute their
    # text-derived facts (atomics, switches) plus tokenizer
    # function lowering so the call graph stays complete.
    mutex_members = tok.collect_mutex_members(list(sources.values()))
    for rel, sf in sources.items():
        if rel in lowerer.firs:
            continue
        lowerer.firs[rel] = tok.lower_file(sf, mutex_members,
                                           lowerer.requires_map,
                                           rel in tok.HOT_ATOMIC_FILES)
    return lowerer.firs
