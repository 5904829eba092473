"""Backend-neutral IR for horizon_analyzer.

Both backends (libclang and the fallback tokenizer) lower each
translation unit / header to this shape; the rule engine in
horizon_analyzer.py only ever sees the IR, so every rule runs
identically under either backend.

Conventions
-----------
Lock domains are canonical strings ``Owner::member`` (e.g. ``Shard::mu``,
``MetricsRegistry::mu_``) for class members, or
``Function::local_name`` for function-local mutexes.  A domain names the
*set* of mutex instances declared by that field -- the granularity the
lock-order theorem needs: two instances of the same domain are never
nested in this codebase (per-shard locks are taken one at a time), so an
edge A -> A is reported as a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    rule: str
    rel: str
    lineno: int
    message: str

    def __str__(self) -> str:
        return f"{self.rel}:{self.lineno}: [{self.rule}] {self.message}"


@dataclass
class LockAcquire:
    """One MutexLock construction (or HORIZON_REQUIRES entry claim)."""
    domain: str
    lineno: int
    # Offsets (into the file's stripped code) of the region during which
    # the lock is held; used to nest acquisitions and attribute calls.
    begin: int = 0
    end: int = 0
    # True for HORIZON_REQUIRES: the caller holds it for the whole body.
    from_requires: bool = False


@dataclass
class CallSite:
    """A call made inside a function body."""
    callee: str          # simple (unqualified) name
    lineno: int
    offset: int = 0
    receiver_type: str = ""  # declared type of the receiver, '' if unknown
    has_receiver: bool = False


@dataclass
class AtomicSite:
    """One atomic operation with an explicit or defaulted memory order."""
    lineno: int
    order: str           # relaxed|acquire|release|acq_rel|seq_cst|consume
    explicit: bool       # False => defaulted (seq_cst) op
    op: str = ""         # load/store/fetch_add/... when known


@dataclass
class SwitchSite:
    """A switch statement over StatusCode."""
    lineno: int
    cases: list = field(default_factory=list)   # enumerator names (kFoo)
    has_default: bool = False


@dataclass
class Function:
    """One function definition (free or member; lambdas fold into their
    enclosing function)."""
    name: str            # simple name
    qualname: str        # Class::name or Function-local qualified form
    rel: str
    lineno: int
    acquires: list = field(default_factory=list)   # [LockAcquire]
    requires: list = field(default_factory=list)   # [domain]
    calls: list = field(default_factory=list)      # [CallSite]
    # (held_domain, CallSite): calls made while a lock is held
    held_calls: list = field(default_factory=list)
    # (outer_domain, inner LockAcquire): direct nesting in this body
    nested: list = field(default_factory=list)


@dataclass
class FileIR:
    """Everything one file contributes to the analysis."""
    rel: str
    functions: list = field(default_factory=list)  # [Function]
    atomics: list = field(default_factory=list)    # [AtomicSite]
    switches: list = field(default_factory=list)   # [SwitchSite]


@dataclass
class ProgramIR:
    """The merged cross-TU view the rules consume."""
    files: dict = field(default_factory=dict)        # rel -> FileIR
    # simple function name -> [Function] across all files (the cross-TU
    # call-graph index; ambiguity is resolved per-call by receiver type,
    # else by the documented conservative policy in the lock-order rule)
    by_name: dict = field(default_factory=dict)
    status_codes: list = field(default_factory=list)  # [kFoo, ...] in order
    backend: str = ""

    def add_file(self, fir: FileIR) -> None:
        self.files[fir.rel] = fir
        for fn in fir.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
