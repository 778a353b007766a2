"""Output files that are either written whole or not at all."""

from __future__ import annotations

import os


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a sibling temp file and ``os.replace``.

    A failure at any step removes the temp file and leaves ``path`` as it
    was, so readers never see a half-written output.  An existing ``path``
    is replaced.  The data is not fsynced: this guards against a failed or
    killed process, not against power loss.  An error from the OS names
    ``path``, never the temp file, whose name is random.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc
