"""Building, loading and calling the compiled kernel, _kernel.c.

pairing imports this module on a process's first decode, prepare or
pairing of a curve group, so a process that only parses, as a server's
replay does, never loads it, ctypes or the library.  pairing's module
docstring says what runs in C, what C is given and the cache rule.
Kernel.miller is where a server's scan runs on two CPUs: it splits a call's
tuples, with their final exponentiations, between the calling thread and one
helper thread, each with its own buffers, as _kernel.c allows.
"""

import os
import sys
import threading

from .errors import ConfigError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_BUILD_TIMEOUT_S = 120
# cc's flags for the library, which its cache name also hashes
_CFLAGS = ("-O3", "-shared", "-fPIC")

# this process's kernel: _UNTRIED until current() first runs, then the loaded
# Kernel, or None for the pure-Python path
_UNTRIED = object()
_handle = _UNTRIED
_lock = threading.Lock()


class Kernel:
    """_kernel.c's entry points through ctypes, over byte strings of
    little-endian limbs; each call makes its own output buffers.  max_limbs
    is the widest p, in 64-bit limbs, that it takes."""

    def __init__(self, path):
        import ctypes

        self._ctypes = ctypes
        lib = ctypes.CDLL(path)
        limbs, text, num = ctypes.POINTER(ctypes.c_uint64), ctypes.c_char_p, ctypes.c_int
        self._walk, self._prepare, self._miller = lib.shrq_walk, lib.shrq_prepare, lib.shrq_miller
        self._walk.argtypes = (num, text, text, text, num)
        self._prepare.argtypes = (num, text, text, text, num, limbs, ctypes.POINTER(ctypes.c_char))
        self._miller.argtypes = (num, text, text, text, num, num, text, num, text, text, limbs, limbs)
        for fn in (self._walk, self._prepare, self._miller, lib.shrq_max_limbs):
            fn.restype = num
        self.max_limbs = lib.shrq_max_limbs()

    def _buffer(self, limbs):
        return (self._ctypes.c_uint64 * limbs)()

    @staticmethod
    def _check(code):
        if code < 0:
            raise ConfigError("the kernel does not take this many limbs")
        return code

    def in_g(self, n, field, point, steps):
        """Whether the walk from point over steps ends at infinity."""
        return bool(self._check(self._walk(n, field, point, steps, len(steps))))

    def prepare(self, n, field, point, steps):
        """point's prepared slot, in the format of pairing's prepare, or None
        if the walk from point over steps does not end at infinity."""
        scratch = self._buffer((len(steps) + 1) * 5 * n)
        slot = self._ctypes.create_string_buffer(len(steps) * (16 * n + 1))
        return slot.raw if self._check(self._prepare(n, field, point, steps, len(steps), scratch, slot)) else None

    def miller(self, n, field, cofactor, steps, slots, prepared, tuples, points, active):
        """Each tuple's product of pairings as a GT element's (a, b) limbs, or
        None if some tuple's Miller product f is 0.  With two tuples or more
        and more than one CPU to run on, a helper thread takes the tuples from
        tuples // 2 on while the calling thread takes the rest; the foreign
        call releases the GIL, so the two run at once."""
        cut = tuples // 2
        if not cut or len(os.sched_getaffinity(0)) < 2:
            return self._millers(n, field, cofactor, steps, slots, prepared, tuples, points, active)
        stride = len(points) // tuples  # one tuple's packed points
        theirs = []  # the helper's output, or the exception it raised

        def helper():
            try:
                theirs.append(self._millers(n, field, cofactor, steps, slots, prepared, tuples - cut,
                                            points[cut * stride :], active[cut * slots :]))
            except BaseException as exc:  # re-raised by the caller
                theirs.append(exc)

        thread = threading.Thread(target=helper, name="shrq-miller")
        thread.start()
        try:
            ours = self._millers(n, field, cofactor, steps, slots, prepared, cut, points[: cut * stride],
                                 active[: cut * slots])
        finally:
            thread.join()
        if isinstance(theirs[0], BaseException):
            raise theirs[0]
        return None if ours is None or theirs[0] is None else ours + theirs[0]

    def _millers(self, n, field, cofactor, steps, slots, prepared, tuples, points, active):
        """miller's products of these tuples in one foreign call."""
        scratch = self._buffer((slots * len(steps) + slots + tuples) * 2 * n)
        out = self._buffer(tuples * 2 * n)
        f_is_0 = self._check(self._miller(n, field, cofactor, steps, len(steps), slots, prepared, tuples,
                                          points, active, scratch, out))
        return None if f_is_0 else bytes(out)


def load(directory):
    """The kernel from directory, compiled there from _kernel.c first if it
    is not there yet; None if it cannot be built or loaded.  Its file name
    carries the SHA-256 of _CFLAGS and the source, so a change to either
    builds a new library."""
    import hashlib

    tag = sys.implementation.cache_tag
    if tag is None or sys.byteorder != "little":
        return None
    try:
        with open(_SOURCE, "rb") as src:
            source = src.read()
        digest = hashlib.sha256(" ".join(_CFLAGS).encode() + b"\0" + source).hexdigest()
        path = os.path.join(directory, f"_kernel.{digest}.{tag}.so")
        if not os.path.exists(path):
            _build(source, path)
        return Kernel(path)
    except OSError:  # no compiler, a failed build, a directory it cannot write
        return None


def _build(source, path):
    """Compile source into path through a temporary file of this process's
    own, so a reader never sees a partial library; OSError if it fails."""
    import subprocess

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = ["cc", *_CFLAGS, "-x", "c", "-", "-o", tmp]
    try:
        subprocess.run(cmd, input=source, capture_output=True, check=True, timeout=_BUILD_TIMEOUT_S)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot build the kernel: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def current():
    """This process's kernel, tried once, built beside this module in its
    __pycache__; None for the pure-Python path."""
    global _handle
    with _lock:
        if _handle is _UNTRIED:
            _handle = load(os.path.join(os.path.dirname(_SOURCE), "__pycache__"))
        return _handle
