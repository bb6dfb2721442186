"""Fork-safety fixture: worker-reachable module with violations."""

import signal
import weakref

_CACHE = {}
_SEEN = set()
_HANDLES = weakref.WeakSet()  # qualified constructors count too
_LIMIT = 10  # immutable global: writes through `global` are still a
             # rebind but _LIMIT is not tracked (not a mutable literal)


def remember(key, value):
    _CACHE[key] = value


def remember_allowed(key, value):
    _CACHE[key] = value  # lint: allow[mutable-global-write]


def note(item):
    _SEEN.add(item)


def register(handle):
    _HANDLES.add(handle)


def rebind():
    global _CACHE
    _CACHE = {}


def forget(key):
    del _CACHE[key]


def local_shadow(key, value):
    # A local named like the global shadows it; no finding.
    _CACHE = {}
    _CACHE[key] = value
    return _CACHE


def read_only(key):
    return _CACHE.get(key)


def install_handler(handler):
    signal.signal(signal.SIGTERM, handler)


def install_handler_allowed(handler):
    signal.signal(signal.SIGTERM, handler)  # lint: allow[signal-registration]


def approved_handler(handler):
    # Approved via the fixture contract registry in tests.
    signal.signal(signal.SIGTERM, handler)
