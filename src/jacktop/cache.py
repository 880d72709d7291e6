"""File cache: one JSON document per artifact, with schema version and digest.

Artifacts are the per-diagram Jack vectors of the oracle (monomial-basis
coefficients as integer coefficient lists in alpha) and the per-index g/R
expansions of the top-degree part.  Documents that do not match their
digest (edited by hand, say), stale schema versions, documents of the
wrong shape, and Jack and top-degree documents that cannot belong to their
diagram or index are ignored, which forces a recompute.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import suppress

from .exact import KLPoly
from .young import Partition, format_partition

SCHEMA_VERSION = 3


class Cache:
    """Directory-backed JSON cache."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _read(self, name: str, decode):
        """decode(doc) for the named document, or None (a miss, so the
        artifact is recomputed and rewritten) when the file is absent,
        unreadable, not JSON or nested too deeply to parse, not matching
        its digest, of another schema version or of the wrong shape."""
        path = self._path(name)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            sealed = isinstance(doc, dict) and \
                doc.pop("sha256", None) == _digest(doc)
        except (OSError, ValueError, RecursionError):
            return None
        if not sealed or doc.get("schema") != SCHEMA_VERSION:
            return None
        try:
            return decode(doc)
        except (KeyError, TypeError, AttributeError, ValueError,
                ZeroDivisionError, OverflowError):
            return None

    def _write(self, name: str, doc: dict) -> None:
        """Store the document, its schema version and digest; a write that
        fails (say, a directory in the way) is reported on stderr and
        skipped, since the value is already computed and the next run only
        recomputes it.  A temporary file it leaves is removed, best effort."""
        doc = {"schema": SCHEMA_VERSION, **doc}
        doc["sha256"] = _digest(doc)
        tmp = self._path(name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            os.replace(tmp, self._path(name))
        except OSError as exc:
            print(f"warning: cache write skipped: {exc}", file=sys.stderr)
            with suppress(OSError):
                os.remove(tmp)

    @staticmethod
    def _jack_name(lam: Partition) -> str:
        return "jack_" + format_partition(lam).replace(",", "-") + ".json"

    def load_jack(self, lam: Partition, check) -> list[list[int]] | None:
        """The stored vector of lam, or None (a miss) when the document
        names another diagram, an entry is not a list of ints with a
        nonzero last one, or check(lam, vector) raises ValueError."""
        def decode(doc):
            if doc["lambda"] != format_partition(lam):
                raise ValueError("another diagram")
            vector = doc["vector"]
            if type(vector) is not list or any(
                    type(entry) is not list or entry and not entry[-1]
                    or any(type(x) is not int for x in entry)
                    for entry in vector):
                raise ValueError("not a list of integer coefficient lists")
            check(lam, vector)
            return vector

        return self._read(self._jack_name(lam), decode)

    def store_jack(self, lam: Partition, vector: list[list[int]]) -> None:
        self._write(self._jack_name(lam),
                    {"lambda": format_partition(lam), "vector": vector})

    def load_kl_top(self, n: int) -> KLPoly | None:
        """The stored top-degree expansion of index n, or None (a miss) when
        the document names another index, a coefficient is not in its
        written form or a term's grading is not n + 1."""
        def decode(doc):
            if doc["n"] != n:
                raise ValueError("another index")
            poly = KLPoly.from_json(doc["terms"])
            if poly.gradings() - {n + 1}:
                raise ValueError(f"a term of grading other than {n + 1}")
            return poly

        return self._read(f"kltop_{n}.json", decode)

    def store_kl_top(self, n: int, poly: KLPoly) -> None:
        self._write(f"kltop_{n}.json", {"n": n, "terms": poly.to_json()})


def _digest(doc: dict) -> str:
    """The SHA-256 of doc's canonical JSON: sorted keys, compact separators."""
    # Not hashlib where the builtin module exists, as random does: OpenSSL
    # adds 3.6 MB and 2.5 ms to a short command (Python 3.11.7).
    try:
        from _sha256 import sha256
    except ImportError:  # Python 3.12 and later
        from hashlib import sha256
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()


#: The cache that jackref._Basis.m_vector and topdegree.kl_top read and write:
#: cli.main sets it for the length of one call, None means no disk cache.
ACTIVE: Cache | None = None
