"""Objects and versions of the database model (paper Section 4.1).

The database consists of *objects* (rows/tuples); each object has one or more
*versions* created by transaction writes.  A version is identified by the
triple ``(obj, tid, seq)``: ``x_{i:m}`` in the paper's notation is
``Version("x", i, m)``, the ``m``-th modification of object ``x`` by
transaction ``T_i``.  ``x_i`` — the *final* modification before ``T_i``
commits or aborts — is simply the version with the largest ``seq`` among
``T_i``'s writes to ``x`` in a given history.

Version *kinds* (unborn / visible / dead, Section 4.1) are properties of the
write event that created the version, so they live on
:class:`~repro.core.events.Write`; :class:`~repro.core.history.History`
exposes ``kind_of(version)`` for convenience.  The single unborn version
``x_init`` is modelled as a version written by the special initialisation
transaction :data:`INIT_TID`.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

__all__ = [
    "INIT_TID",
    "VersionKind",
    "Version",
    "relation_of",
    "DEFAULT_RELATION",
]

#: Transaction id of the conceptual initialisation transaction ``T_init``
#: (Section 4.1) which installs the unborn version of every object.  It is
#: negative so it can never collide with application transaction ids, which
#: are non-negative (the paper itself uses ``T_0`` as an ordinary application
#: transaction, e.g. in ``H_pred-read``).
INIT_TID: int = -1

#: Relation that objects belong to when no relation is stated explicitly.
#: Parsed paper histories use single-letter objects like ``x`` with no
#: relation prefix; they all live in this default relation.
DEFAULT_RELATION: str = "R"


class VersionKind(Enum):
    """The three kinds of object versions of Section 4.1."""

    UNBORN = "unborn"
    VISIBLE = "visible"
    DEAD = "dead"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Version(namedtuple("Version", "obj tid seq")):
    """An immutable version identity ``x_{i:m}``: the tuple ``(obj, tid,
    seq)``.

    Parameters
    ----------
    obj:
        The object (tuple) identifier, e.g. ``"x"`` or ``"emp:3"``.
    tid:
        The id of the transaction that wrote this version.  ``INIT_TID``
        identifies the unborn version.
    seq:
        1-based index of this write among the writing transaction's
        successive modifications of ``obj`` (``m`` in ``x_{i:m}``).  The
        unborn version uses ``seq == 0``.

    Versions key every hot dict in the checker and the engine, so hashing,
    equality and ordering are the tuple's own, in C: a version hashes as
    ``hash((obj, tid, seq))``, sorts by object, writer, then sequence
    number, and equals the plain triple of its fields.
    """

    __slots__ = ()

    def __new__(cls, obj: str, tid: int, seq: int = 1) -> "Version":
        if not obj:
            raise ValueError("version object id must be non-empty")
        if tid == INIT_TID:
            if seq != 0:
                raise ValueError("the unborn version must have seq == 0")
        elif seq < 1:
            raise ValueError("application versions are numbered from 1")
        return tuple.__new__(cls, (obj, tid, seq))

    @classmethod
    def unborn(cls, obj: str) -> "Version":
        """The initial (unborn) version ``x_init`` of ``obj``."""
        return cls(obj, INIT_TID, 0)

    @property
    def is_unborn(self) -> bool:
        return self.tid == INIT_TID

    @property
    def relation(self) -> str:
        return relation_of(self.obj)

    def label(self, *, explicit_seq: bool = False) -> str:
        """Render in the paper's notation: ``x1``, ``x1.2``, ``xinit``.
        Object names containing digits or punctuation are braced
        (``{emp:3}1``) so the token stays unambiguous."""
        obj = self.obj if self.obj.isalpha() or self.obj.replace("_", "").isalpha() else "{" + self.obj + "}"
        if self.is_unborn:
            return f"{obj}init"
        if explicit_seq or self.seq != 1:
            return f"{obj}{self.tid}.{self.seq}"
        return f"{obj}{self.tid}"

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"Version({self.label()})"


def relation_of(obj: str) -> str:
    """Return the relation an object belongs to.

    Objects may be namespaced as ``"relation:key"`` (the engine does this,
    e.g. ``"emp:3"``); bare names such as the paper's ``x`` and ``y`` belong
    to :data:`DEFAULT_RELATION`.  A tuple's relation is fixed for its whole
    lifetime (Section 4.3: "a tuple's relation is known in our model when the
    database is initialized").
    """
    rel, sep, _ = obj.partition(":")
    return rel if sep else DEFAULT_RELATION
