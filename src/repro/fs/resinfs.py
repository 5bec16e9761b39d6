"""The RESIN-aware filesystem layer.

``ResinFS`` wraps the raw in-memory :class:`~repro.fs.filesystem.FileSystem`
with the three file-related RESIN mechanisms:

* **Persistent policies** (Section 3.4.1): when tainted data is written to a
  file, its byte-range policy map is serialized into the file's extended
  attributes; when the file is read back, the policies are de-serialized and
  re-attached to the data — so assertions keep holding across storage.

* **Default file filters** (Section 3.2.1): every read and write passes
  through the default filter for the ``file`` channel type, which invokes
  ``export_check`` with a ``{'type': 'file', 'path': ...}`` context.

* **Persistent filter objects** (Section 3.2.3): a programmer can attach a
  filter object to a specific file or directory; the runtime invokes it when
  data flows into or out of that file, or when the directory is modified
  (create, delete, rename) — this is how write access control is enforced.

The current request context (e.g. the authenticated user) is pushed into the
persistent filters' contexts via :meth:`ResinFS.set_request_context`, mirroring
how the paper's filters consult application state such as the current user; an
application that writes on a user's behalf for one operation wraps it in
:meth:`ResinFS.acting_as`, which puts the replaced context back afterwards.

Concurrency: every operation holds only the **subtree lock** of the directory
owning its target path (two ordered subtree locks for :meth:`ResinFS.rename`),
so requests working under disjoint directories proceed in parallel — the
filesystem analogue of the SQL engine's per-table locks.  Compound
read-modify-write sequences use :meth:`ResinFS.transaction`, the analogue of
``db.transaction(*tables)``.  Persistent filters are *cloned* per invocation
(each invocation gets its own context), so a filter attached to a shared
ancestor directory never becomes a hidden channel between concurrent requests.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..core.context import FilterContext
from ..core.exceptions import FileSystemError, PolicyViolation, SerializationError
from ..core.filter import Filter
from ..core.locking import durable
from ..core.registry import default_filter
from ..core.request_context import current_request
from ..core.serialization import dumps_rangemap, loads_rangemap, serialize_filter
from ..tracking.tainted_bytes import TaintedBytes
from ..tracking.tainted_str import TaintedStr
from . import path as fspath
from .filesystem import FileSystem, Inode, Stat

#: Extended attribute holding the serialized policy range map of a file.
POLICY_XATTR = "user.resin.policies"

#: Extended attribute holding the persistent filter object of a file/directory.
FILTER_XATTR = "user.resin.filter"


# -- WAL records ----------------------------------------------------------------
# Logged by ResinFS as it mutates, and by a checkpoint for the whole tree.


def file_record(path: str, node: Inode) -> Dict[str, Any]:
    """The ``fs.write`` record of the file ``node`` at ``path``: its bytes
    and its stored policy range map, so replay restores data and taint in
    one step."""
    return {
        "op": "fs.write",
        "path": path,
        "data": node.data.hex(),
        "policies": node.xattrs.get(POLICY_XATTR),
    }


def filter_record(path: str, flt: Filter) -> Optional[Dict[str, Any]]:
    """The ``fs.filter`` record attaching ``flt`` to ``path``, or ``None``
    for a filter that carries code (a callable predicate): such a filter is
    not durable by design, and the application re-attaches it at start-up."""
    try:
        record = serialize_filter(flt)
    except SerializationError:
        return None
    return {"op": "fs.filter", "path": path, "filter": record}


class ResinFile:
    """An open file handle with policy-aware read/write.

    Mirrors the paper's byte-level tracking for file data: reads return
    :class:`~repro.tracking.tainted_bytes.TaintedBytes` whose per-byte
    policies come from the file's xattrs, and writes update those xattrs.

    Every handle operation acquires the owning path's subtree lock, so a
    handle shared between threads stays consistent while handles under
    disjoint directories never serialize against each other.
    """

    def __init__(self, resinfs: "ResinFS", path: str, mode: str = "r"):
        if mode not in ("r", "w", "a"):
            raise FileSystemError(f"unsupported mode {mode!r}")
        self.fs = resinfs
        self.path = fspath.normalize(path)
        self.mode = mode
        self.closed = False
        self._offset = 0
        if mode == "r":
            self._data = self.fs.read_bytes(self.path)
        elif mode == "a" and self.fs.raw.exists(self.path):
            self._data = self.fs.read_bytes(self.path)
            self._offset = len(self._data)
        else:
            self._data = TaintedBytes(b"")

    def read(self, size: Optional[int] = None) -> TaintedBytes:
        self._check_open()
        with self.fs.raw.locked(self.fs.subtree_of(self.path)):
            offset = self._offset
            end = len(self._data) if size is None else offset + size
            chunk = self._data[offset:end]
            self._offset += len(chunk)
            return chunk

    def write(self, data) -> int:
        self._check_open()
        if self.mode == "r":
            raise FileSystemError("file opened read-only")
        if isinstance(data, str):
            data = (
                data if isinstance(data, TaintedStr) else TaintedStr(data)
            ).encode()
        elif not isinstance(data, TaintedBytes):
            data = TaintedBytes(bytes(data))
        with self.fs.raw.locked(self.fs.subtree_of(self.path)):
            self._data = self._data + data
        return len(data)

    def close(self) -> None:
        if self.closed:
            return
        if self.mode in ("w", "a"):
            self.fs.write_bytes(self.path, self._data)
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise FileSystemError("I/O operation on closed file")

    def __enter__(self) -> "ResinFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class ResinFS:
    """Policy- and filter-aware filesystem operations."""

    def __init__(self, raw: Optional[FileSystem] = None, *, env=None):
        self.raw = raw if raw is not None else FileSystem()
        #: The owning environment; its registry supplies the ``file``
        #: channel's default filter.
        self.env = env
        self._request_context: Dict[str, Any] = {}
        #: Optional :class:`repro.storage.durability.Durability` sink.  When
        #: set, every namespace op and data/xattr write runs under the
        #: durability gate and logs its physical effect to the WAL.
        self.durability = None
        #: When True (set by a tolerant durability open), unknown policy
        #: classes in stored xattrs load as deny-by-default placeholders
        #: instead of failing the read.
        self.tolerant_policies = False

    # -- durability --------------------------------------------------------------

    def _log(self, record: Optional[Dict[str, Any]]) -> None:
        sink = self.durability
        if sink is not None and record is not None:
            sink.log(record)

    # -- locking ---------------------------------------------------------------

    def subtree_of(self, path: str) -> str:
        """The directory whose subtree lock serializes operations on
        ``path`` (see :meth:`FileSystem.subtree_of`)."""
        return self.raw.subtree_of(path)

    def transaction(self, *paths: str):
        """Hold the subtree locks of every path in ``paths`` for the block.

        The filesystem analogue of ``db.transaction(*tables)``: an
        application-level read-modify-write (read a file, compute, write it
        back) names every path it touches up front and holds their subtree
        locks across the whole sequence, so no concurrent request can
        interleave.  A path that is an existing directory locks that
        directory's own subtree (operations on its *entries*); any other
        path locks its parent directory, matching what ``read_bytes`` /
        ``write_bytes`` on that path acquire.

        Locks are acquired in sorted canonical-path order; a nested
        ``transaction`` naming a path that sorts before the ones already
        held raises :class:`~repro.core.exceptions.FileSystemError`
        immediately (see :meth:`FileSystem.locked`).  The directory-or-file
        probe is re-validated after acquisition (``plan_locked``), so the
        block always holds the subtree matching what the tree actually
        contains.
        """
        return self.raw.plan_locked(self._transaction_subtrees, paths)

    def _transaction_subtrees(self, paths) -> tuple:
        return tuple(sorted({self._transaction_subtree(p) for p in paths}))

    def _transaction_subtree(self, path: str) -> str:
        path = fspath.normalize(path)
        if self.raw.isdir(path):
            return path
        return self.raw.subtree_of(path)

    # -- request context -------------------------------------------------------

    def _active_request(self):
        """The RequestContext owning this filesystem, if one is bound."""
        rctx = current_request()
        if (
            rctx is not None
            and rctx.env is not None
            and getattr(rctx.env, "fs", None) is self
        ):
            return rctx
        return None

    @property
    def request_context(self) -> Dict[str, Any]:
        """The context persistent filters see for the *current* request.

        While a :class:`~repro.core.request_context.RequestContext` for this
        filesystem's environment is bound, this resolves to that request's
        ``fs_context`` — each concurrent request sees only its own user.
        Outside any request it falls back to the instance-level context (the
        pre-request-context behaviour).
        """
        rctx = self._active_request()
        if rctx is not None:
            return rctx.fs_context
        return self._request_context

    def set_request_context(self, **kwargs: Any) -> None:
        """Set context (e.g. ``user='alice'``) that persistent filters see.

        The web substrate calls this at the start of each request, so that a
        write-access filter can check the authenticated user the way the
        paper's MoinMoin write-ACL filter does.  Inside a bound
        ``RequestContext`` the update is request-local.
        """
        rctx = self._active_request()
        if rctx is not None:
            rctx.fs_context = dict(kwargs)
        else:
            self._request_context = dict(kwargs)

    @contextmanager
    def acting_as(self, user: Optional[str]) -> Iterator[None]:
        """Run the block with persistent filters seeing ``user``, then put
        back the context it replaced.

        The applications wrap each file operation they perform on a user's
        behalf in this, so the enclosing request (or, outside one, the
        instance-level context) keeps its own user afterwards.
        """
        replaced = self.request_context
        self.set_request_context(user=user)
        try:
            yield
        finally:
            self.set_request_context(**replaced)

    # -- persistent filters ------------------------------------------------------

    def set_persistent_filter(self, path: str, flt: Filter) -> None:
        """Attach a persistent filter object to a file or directory.

        On a durable filesystem the filter is serialized (class name + data
        fields, like a policy) into the log so it survives restart.  A
        filter that carries code (e.g. a callable predicate) cannot be
        serialized; it still guards this process but must be re-attached at
        application start-up after a restart.
        """
        if not isinstance(flt, Filter):
            raise FileSystemError("persistent filter must be a Filter")
        path = fspath.normalize(path)
        with durable(self.durability), self.raw.locked(self.subtree_of(path)):
            self.raw.set_xattr(path, FILTER_XATTR, flt)
            self._log(filter_record(path, flt))

    def get_persistent_filter(self, path: str) -> Optional[Filter]:
        if not self.raw.exists(path):
            return None
        flt = self.raw.get_xattr(path, FILTER_XATTR)
        return flt if isinstance(flt, Filter) else None

    def remove_persistent_filter(self, path: str) -> None:
        path = fspath.normalize(path)
        with durable(self.durability), self.raw.locked(self.subtree_of(path)):
            self.raw.remove_xattr(path, FILTER_XATTR)
            self._log({"op": "fs.unfilter", "path": path})

    def _guarding_filters(self, path: str) -> Iterator[Filter]:
        """Yield the persistent filters that guard ``path``: the one attached
        to the path itself plus those attached to any ancestor directory.

        Walking up the ancestors means a single filter on a data root guards
        the whole subtree — the shape the file-manager write-access assertion
        needs (Section 3.2.3)."""
        current = fspath.normalize(path)
        seen = set()
        while True:
            flt = self.get_persistent_filter(current)
            if flt is not None and id(flt) not in seen:
                seen.add(id(flt))
                yield flt
            if current == "/":
                return
            current = fspath.dirname(current)

    def _prepare_filter(
        self, flt: Filter, path: str, op: Optional[str] = None
    ) -> Filter:
        """A per-invocation clone of ``flt`` carrying this operation's
        context.

        The stored filter object is shared by every path it guards (and, for
        a filter on an ancestor directory, by every concurrent request
        working anywhere in that subtree).  Mutating its context in place
        would make disjoint-subtree operations race on it now that they no
        longer serialize on a global lock, so each invocation gets a shallow
        copy with its own merged context instead.
        """
        prepared = copy.copy(flt)
        context = FilterContext()
        context.update(flt.context)
        context.env = getattr(flt.context, "env", None) or self.env
        context.update(self.request_context)
        context.setdefault("type", "file")
        context["path"] = path
        if op is not None:
            context["operation"] = op
        prepared.context = context
        return prepared

    def _invoke_persistent_read(self, path: str, data):
        for flt in self._guarding_filters(path):
            data = self._prepare_filter(flt, path).filter_read(data)
        return data

    def _invoke_persistent_write(self, path: str, data):
        for flt in self._guarding_filters(path):
            try:
                data = self._prepare_filter(flt, path).filter_write(data)
            except PolicyViolation as exc:
                self._record_deny("write", path, data, exc)
                raise
        return data

    def _check_directory_mutation(self, op: str, path: str) -> None:
        """Invoke the persistent filters guarding ``path`` (its own and its
        ancestors') for a namespace mutation such as create, delete or
        rename."""
        for flt in self._guarding_filters(path):
            prepared = self._prepare_filter(flt, path, op)
            checker = getattr(prepared, "check_mutation", None)
            try:
                if callable(checker):
                    checker(op, path, prepared.context)
                else:
                    prepared.filter_write(TaintedStr(path))
            except PolicyViolation as exc:
                self._record_deny(op, path, None, exc)
                raise

    def _record_deny(self, op: str, path: str, data, exc) -> None:
        """Audit one xattr-policy (persistent filter) denial.  Called with
        the subtree lock held — recording is only a queue append; the audit
        writer thread does the I/O, never this one."""
        from ..audit.recorder import recorder_for

        recorder = recorder_for(self.env)
        if recorder is not None:
            context = FilterContext(
                type="file", path=path, operation=op, **self.request_context
            )
            recorder.record(
                "fs.deny",
                verdict="deny",
                context=context,
                policies=getattr(exc, "policy", None) and [exc.policy],
                rangemap=getattr(data, "rangemap", None),
                violation=exc,
            )

    # -- default filters -----------------------------------------------------------

    def _default_filter(self, path: str) -> Filter:
        context = FilterContext(type="file", path=path, **self.request_context)
        context.env = self.env
        return default_filter(self.env, "file", context)

    # -- policy persistence -----------------------------------------------------------

    def _store_policies(self, path: str, data: TaintedBytes) -> None:
        if data.rangemap.is_empty():
            self.raw.remove_xattr(path, POLICY_XATTR)
            return
        self.raw.set_xattr(path, POLICY_XATTR, dumps_rangemap(data.rangemap))

    def _load_policies(self, path: str, raw_data: bytes) -> TaintedBytes:
        serialized = self.raw.get_xattr(path, POLICY_XATTR)
        rangemap = loads_rangemap(serialized, len(raw_data),
                                  tolerant=self.tolerant_policies)
        if rangemap.length != len(raw_data):
            # The file was modified behind RESIN's back; fall back to
            # spreading the stored policies over the whole file.
            rangemap = rangemap.spread(len(raw_data)).with_length(len(raw_data))
        return TaintedBytes(raw_data, rangemap)

    # -- file data ------------------------------------------------------------------------

    def open(self, path: str, mode: str = "r") -> ResinFile:
        return ResinFile(self, path, mode)

    def read_bytes(self, path: str) -> TaintedBytes:
        path = fspath.normalize(path)
        with self.raw.locked(self.subtree_of(path)):
            raw_data = self.raw.read_raw(path)
            data = self._load_policies(path, raw_data)
            data = self._invoke_persistent_read(path, data)
            data = self._default_filter(path).filter_read(data)
        return data

    def read_text(self, path: str, encoding: str = "utf-8") -> TaintedStr:
        return self.read_bytes(path).decode(encoding)

    def write_bytes(self, path: str, data, append: bool = False) -> None:
        path = fspath.normalize(path)
        if isinstance(data, str):
            data = (
                data if isinstance(data, TaintedStr) else TaintedStr(data)
            ).encode()
        elif not isinstance(data, TaintedBytes):
            data = TaintedBytes(bytes(data))
        with durable(self.durability), self.raw.locked(self.subtree_of(path)):
            if not self.raw.exists(path):
                self._check_directory_mutation("create", path)
            data = self._default_filter(path).filter_write(data)
            data = self._invoke_persistent_write(path, data)
            if append and self.raw.exists(path):
                existing = self._load_policies(path, self.raw.read_raw(path))
                data = existing + data
            self.raw.write_raw(path, bytes(data))
            self._store_policies(path, data)
            if self.durability is not None:
                self._log(file_record(path, self.raw._require(path)))

    def write_text(
        self, path: str, text, append: bool = False, encoding: str = "utf-8"
    ) -> None:
        text = text if isinstance(text, TaintedStr) else TaintedStr(text)
        self.write_bytes(path, text.encode(encoding), append=append)

    # -- policy helpers -------------------------------------------------------------------

    def add_file_policy(self, path: str, policy) -> None:
        """Attach ``policy`` to every byte of an existing file (used by
        installers, e.g. ``make_file_executable`` in Figure 6)."""
        path = fspath.normalize(path)
        with durable(self.durability), self.raw.locked(self.subtree_of(path)):
            data = self.read_bytes(path).with_policy(policy)
            self.raw.write_raw(path, bytes(data))
            self._store_policies(path, data)
            if self.durability is not None:
                self._log(file_record(path, self.raw._require(path)))

    def file_policies(self, path: str):
        """The policy set stored for a file (without reading it through the
        filters) — what a RESIN-aware web server consults before serving a
        static file."""
        path = fspath.normalize(path)
        with self.raw.locked(self.subtree_of(path)):
            raw_data = self.raw.read_raw(path)
            return self._load_policies(path, raw_data).policies()

    # -- namespace operations ---------------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False) -> None:
        path = fspath.normalize(path)
        if path == "/":
            return
        with durable(self.durability), self.raw.plan_locked(
            self.raw.mkdir_subtrees, path, parents
        ):
            self._check_directory_mutation("mkdir", path)
            self.raw._mkdir_locked(path, parents)
            self._log({"op": "fs.mkdir", "path": path})

    def unlink(self, path: str) -> None:
        path = fspath.normalize(path)
        with durable(self.durability), self.raw.plan_locked(
            self.raw.unlink_subtrees, path
        ):
            self._check_directory_mutation("unlink", path)
            self.raw._unlink_locked(path)
            self._log({"op": "fs.unlink", "path": path})

    def rename(self, src: str, dst: str) -> None:
        src = fspath.normalize(src)
        dst = fspath.normalize(dst)
        with durable(self.durability), self.raw.plan_locked(
            self.raw.rename_subtrees, src, dst
        ):
            self._check_directory_mutation("rename", src)
            self._check_directory_mutation("rename", dst)
            # Carry the source's persistent filter and policies along.
            self.raw._rename_locked(src, dst)
            self._log({"op": "fs.rename", "src": src, "dst": dst})

    def listdir(self, path: str) -> List[str]:
        return self.raw.listdir(path)

    def exists(self, path: str) -> bool:
        return self.raw.exists(path)

    def isdir(self, path: str) -> bool:
        return self.raw.isdir(path)

    def isfile(self, path: str) -> bool:
        return self.raw.isfile(path)

    def stat(self, path: str) -> Stat:
        return self.raw.stat(path)

    def walk(self, top: str = "/"):
        return self.raw.walk(top)
