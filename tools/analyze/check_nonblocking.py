"""Non-blocking-context checker.

Functions annotated `AFS_NONBLOCKING` (src/common/thread_annotations.hpp)
are the dispatcher/rendezvous paths the event-loop refactor must be able
to multiplex: they may take short in-process locks and timeout-bounded
waits, but must never reach a primitive that can park the thread
indefinitely on a peer.  This check builds a call graph from every
annotated function and reports the first blocking primitive reachable on
each path.

Blocking policy (the lists below are the policy — edit them deliberately):

* unbounded primitives: raw POSIX transfer/wait syscalls (`read`, `write`,
  `poll` & friends, `waitpid` without WNOHANG, `accept`, `connect`,
  `recv*`/`send*`, `sleep*`), `CondVar::Wait`, `std::condition_variable`
  waits, thread `join`, cross-process `NamedMutex` acquisition (including
  the RAII `NamedMutexGuard`), and `ipc::ReadFrame(pipe)` — the one-argument
  form, whose deadline defaults to never.
* bounded (traversal cuts): `CondVar::WaitUntil`, `PipeEnd::WaitReadable`,
  `PipeEnd::WaitWritable`, `PipeEnd::Poll`, `TryLock`,
  `waitpid(..., WNOHANG)`, the deadline-carrying transfer calls —
  `ipc::ReadFrame(pipe, deadline)`, `ipc::WriteFrame(pipe, payload,
  deadline)`, `PipeEnd::WriteAll(bytes, deadline)`,
  `PipeEnd::ReadExact(out, deadline)`, each taking one `afs::Deadline`
  for the whole call — anything that converts a wedged peer into a
  `kTimeout`/`kBusy` the caller must handle.
* fault evaluation (also a traversal cut): any call into `afs::fault`,
  such as `fault::Hit(site)` and `AFS_FAULT_POINT(site)`, which the
  model records as the same call.  A delay or kill rule fires there only
  under an armed fault plan (a fault-injection run); with no plan the
  site is one relaxed load.
* `afs::Mutex::Lock` / `MutexLock` are allowed: in-process critical
  sections are short by construction (the lock-order checker and TSan keep
  them honest); what kills an event loop is waiting on a *peer* while
  holding the loop.

Precision notes: calls are resolved through the tokenizer model
(tools/analyze/engine.py).  Method calls resolve by receiver type where
the model can see it and fall back to every same-named definition
otherwise, so the check over-approximates; suppress deliberate findings
with `// afs-lint: allow(nonblocking: reason)` at the *annotated
function's* definition line, or baseline them with a note.
"""

from __future__ import annotations

from collections import deque

ANNOTATION = "AFS_NONBLOCKING"
CHECK = "nonblocking"

# Free-function / syscall names that park the caller indefinitely.
BLOCKING_FREE = {
    "read", "pread", "readv", "preadv",
    "write", "pwrite", "writev", "pwritev",
    "poll", "ppoll", "select", "pselect",
    "recv", "recvfrom", "recvmsg", "send", "sendto", "sendmsg",
    "accept", "accept4", "connect",
    "wait", "waitid", "pause", "flock",
    "sleep", "usleep", "nanosleep",
    "sleep_for", "sleep_until",
}

# (class, method) pairs that park the caller indefinitely.
BLOCKING_METHODS = {
    ("CondVar", "Wait"),
    ("condition_variable", "wait"),
    ("NamedMutex", "Lock"),
    ("NamedMutex", "lock"),
}

# Method names blocking regardless of receiver type (receiver resolution
# is best-effort; these names are unambiguous in this tree).
BLOCKING_METHOD_NAMES = {"join"}

# Constructing one of these blocks in the constructor (RAII acquisition).
BLOCKING_CTORS = {"NamedMutexGuard"}

# Functions whose *contract* bounds the wait: traversal stops here instead
# of descending into their implementation (which legitimately uses poll/
# read internally under a deadline).
BOUNDED_CUTS = {
    ("CondVar", "WaitUntil"),
    ("PipeEnd", "WaitReadable"),
    ("PipeEnd", "WaitWritable"),
    ("PipeEnd", "Poll"),
    ("Mutex", "Lock"),
    ("Mutex", "lock"),
    ("Mutex", "TryLock"),
    ("Mutex", "try_lock"),
    ("NamedMutex", "TryLock"),
}
BOUNDED_CUT_NAMES = {"TryLock", "try_lock", "WaitUntil", "WaitReadable",
                     "WaitWritable"}


def _is_blocking_call(call, fn, model):
    """Returns a primitive label when `call` itself is an unbounded wait."""
    name = call.name
    if call.kind in ("free", "qualified"):
        if name == "ReadFrame":
            # ipc::ReadFrame(pipe) blocks forever; the two-argument form
            # passes a deadline and is the sanctioned variant.
            return "ReadFrame(no timeout)" if call.nargs <= 1 else None
        if name == "waitpid":
            return None if "WNOHANG" in call.arg_idents else "waitpid"
        if name == "epoll_wait" or name == "epoll_pwait":
            return None  # timeout argument bounds it; -1 uses are the loop
        if name in BLOCKING_FREE:
            # Only count syscall-looking uses: bare or `::`/`std::`-qualified
            # with at least one argument (`poll()` on a zero-arg local
            # std::function is not poll(2)).
            if call.nargs >= 1 and (call.kind == "free" or call.quals in ((
                    "",), ("std",), ("std", "this_thread"))):
                return name
        if name in BLOCKING_CTORS:
            return name + " (RAII lock)"
        return None
    # Method call.
    if name in BLOCKING_METHOD_NAMES:
        return name
    recv_cls = model.resolve_receiver(fn, call.recv)
    if name == "ReadFrame":
        return "ReadFrame(no timeout)" if call.nargs <= 1 else None
    for cls, meth in BLOCKING_METHODS:
        if name != meth:
            continue
        if recv_cls is None:
            # Unresolved receiver: blocking only when every class defining
            # this method name is a blocking one (else assume the benign
            # overloads; the baseline catches what slips through).
            impl_classes = {f.cls for f in model.methods.get(name, [])}
            decl_classes = {c.name for infos in model.classes.values()
                            for c in infos if name in c.method_decls}
            classes = impl_classes | decl_classes
            if classes and all((c, name) in BLOCKING_METHODS
                               for c in classes):
                return f"{cls}::{meth}"
        elif recv_cls == cls:
            return f"{cls}::{meth}"
    return None


def _is_cut(call, fn, model):
    name = call.name
    if name in BOUNDED_CUT_NAMES:
        return True
    if call.kind == "qualified" and "fault" in call.quals:
        return True  # fault evaluation: see the policy in the docstring
    if name == "ReadFrame" and call.nargs >= 2:
        return True
    # The deadline-passing transfer calls; the shorter-arity forms of the
    # same names default to no deadline and stay subject to traversal.
    if name in ("WriteAll", "ReadExact") and call.nargs >= 2:
        return True
    if name == "WriteFrame" and call.nargs >= 3:
        return True
    if call.kind == "method":
        recv_cls = model.resolve_receiver(fn, call.recv)
        if recv_cls is not None and (recv_cls, name) in BOUNDED_CUTS:
            return True
        if recv_cls is None and any(
                (c, name) in BOUNDED_CUTS
                for c in {f.cls for f in model.methods.get(name, [])}):
            return True
    return False


def _callees(call, fn, model):
    """Repo-level function definitions this call may land in."""
    if call.kind == "method":
        return model.method_candidates(call, fn)
    cands = model.functions.get(call.name, [])
    if call.kind == "free" and fn.cls:
        # Unqualified call inside a method body: an own-class (or inherited)
        # method shadows any same-named free function or foreign method.
        family = {fn.cls}
        stack = [fn.cls]
        while stack:
            info = model.class_info(stack.pop())
            for b in (info.bases if info else []):
                if b not in family:
                    family.add(b)
                    stack.append(b)
        own = [f for f in cands if f.cls in family]
        if own:
            return own
    # Free or qualified: all same-named definitions (namespaces are not
    # tracked precisely; names in this tree are distinctive enough).
    return [f for f in cands if f.cls is None] or cands


def run(model, roots=None):
    """Yields findings: dicts with id/file/line/message."""
    annotated = {f.qualname: f for f in model.annotated_functions(ANNOTATION)}
    findings = []
    for root in sorted(annotated.values(), key=lambda f: (f.path, f.line)):
        src = model.sources.get(root.path)
        if src is not None and src.allowed(CHECK, root.line):
            continue
        reported = set()
        # BFS so the reported chain is a shortest path to each primitive.
        queue = deque([(root, ())])
        visited = {root.qualname}
        while queue:
            fn, path = queue.popleft()
            for call in fn.calls:
                label = _is_blocking_call(call, fn, model)
                if label is not None:
                    callsrc = model.sources.get(fn.path)
                    if callsrc is not None and callsrc.allowed(CHECK,
                                                              call.line):
                        continue
                    key = (root.qualname, label)
                    if key in reported:
                        continue
                    reported.add(key)
                    chain = " -> ".join(
                        q for q in path + (fn.qualname,)) or root.qualname
                    findings.append({
                        "check": CHECK,
                        "id": f"{CHECK}:{root.path}:{root.qualname}:{label}",
                        "file": root.path,
                        "line": root.line,
                        "message": (
                            f"{root.qualname} is AFS_NONBLOCKING but reaches "
                            f"blocking `{label}` via {chain} "
                            f"({fn.path}:{call.line})"),
                    })
                    continue
                if _is_cut(call, fn, model):
                    continue
                for callee in _callees(call, fn, model):
                    if callee.qualname in visited:
                        continue
                    visited.add(callee.qualname)
                    queue.append((callee, path + (fn.qualname,)))
    return findings
