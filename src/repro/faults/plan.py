"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a small JSON document describing *which*
failures to inject *where*::

    {"seed": 2022,
     "rules": [
       {"site": "worker.crash", "name": "ex2[d1K1*", "max_attempts": 1},
       {"site": "cache.torn_write", "key_prefix": "3f", "times": 1},
       {"site": "job.delay", "seconds": 0.05, "times": 3},
       {"site": "server.drop", "name": "/analyze", "times": 1}]}

Every rule is matched deterministically: by the job's display ``name``
(verbatim, or as an :mod:`fnmatch` glob — portfolio rung names embed
the rung, so "kill the exact-warm rung of pair X" is
``name="X[d2K2:exact-warm]"``, and "kill every degree-2 rung of pair X"
is ``name="X[d2*"``), by a hex prefix of its content-addressed key, by
job ``kind``, and by the *attempt* number.  ``max_attempts`` is the
self-healing hook: a rule with ``max_attempts=1`` fires on the first
attempt only, so the retry of the same job deterministically succeeds.
``times`` caps how often a rule fires per process.

The ``seed`` drives the corruption bytes of ``cache.corrupt``, keyed
per entry, so a chaos run is reproducible bit for bit.

Sites (see :func:`repro.faults.fault_point` callers):

=================  =====================================================
``worker.crash``   pool worker exits hard (``os._exit``) before the job
``worker.hang``    worker stops heartbeating and sleeps ``seconds``
``job.delay``      sleep ``seconds`` before executing the job
``job.error``      raise :class:`InjectedFaultError` instead of running
``cache.torn_write``  truncate the entry bytes after a successful store
``cache.corrupt``  overwrite entry bytes with seeded garbage
``cache.delta_drop``  node answers ``GET /cache/delta`` with a 503 —
                    the federation pull leg never arrives
``cache.merge_drop``  node answers ``POST /cache/merge`` with a 503 —
                    the federation push leg is shed
``server.drop``    close the client connection without any response
``net.refused``    coordinator client: connection refused before connect
``net.reset``      coordinator client: connection reset mid-exchange
``net.slow``       coordinator client: add ``seconds`` of latency
``net.truncated_body``  coordinator client: response body cut short
``node.partition``  every request to the matching node fails (matched
                    by node address, not request path)
=================  =====================================================

The ``net.*`` sites are matched by the request URL and the
``node.partition`` site by the node's ``host:port`` address, so one
rule can partition a whole node (``name="*:8791"``) while another
resets a single endpoint (``name="*/analyze"``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any

from repro.errors import ReproError

FAULT_SITES = (
    "worker.crash",
    "worker.hang",
    "job.delay",
    "job.error",
    "cache.torn_write",
    "cache.corrupt",
    "cache.delta_drop",
    "cache.merge_drop",
    "server.drop",
    "net.refused",
    "net.reset",
    "net.slow",
    "net.truncated_body",
    "node.partition",
)

#: Cache-corruption flavors of ``cache.torn_write`` / ``cache.corrupt``.
CORRUPTION_MODES = ("truncate", "garbage")


class FaultPlanError(ReproError):
    """A malformed fault plan (bad JSON, unknown site, invalid bounds)."""


class InjectedFaultError(OSError):
    """The failure raised by ``job.error`` sites.

    Subclasses :class:`OSError` deliberately: injected faults model
    transient infrastructure failures, which the executor's retry
    classification treats as retryable.
    """


@dataclass(frozen=True)
class FaultRule:
    """One injection rule; see the module docstring for the schema.

    Attributes
    ----------
    site:
        Injection site, one of :data:`FAULT_SITES`.
    name:
        The display name at the site (job name / request path),
        matched verbatim or as an :mod:`fnmatch` glob.  A verbatim
        name matches even where the glob reading differs: a rung name
        like ``"X[d2K2:exact-warm]"`` would otherwise be read as ``X``
        plus one character from a set.  Default matches everything.
    key_prefix:
        Hex prefix of the job's content-addressed key ("" = any).
    kind:
        Glob over the job kind (``diff``/``bound``/...; "" outside
        job context).
    max_attempts:
        Fire only while the job's attempt number is below this — the
        retry of a once-faulted job runs clean.  ``0`` means every
        attempt (a permanently faulty rule).
    times:
        Cap on firings of this rule per process (``None`` = unbounded).
    seconds:
        Duration of ``job.delay`` / ``worker.hang`` sleeps.
    mode:
        Cache-corruption flavor: ``"truncate"`` or ``"garbage"``.
    note:
        Free-form description, echoed in logs.
    """

    site: str
    name: str = "*"
    key_prefix: str = ""
    kind: str = "*"
    max_attempts: int = 1
    times: int | None = None
    seconds: float = 0.05
    mode: str = "truncate"
    note: str = ""

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r} "
                f"(use one of {', '.join(FAULT_SITES)})"
            )
        if self.max_attempts < 0:
            raise FaultPlanError("max_attempts must be >= 0")
        if self.times is not None and self.times < 1:
            raise FaultPlanError("times must be >= 1 (or omitted)")
        if self.seconds < 0:
            raise FaultPlanError("seconds must be >= 0")
        if self.mode not in CORRUPTION_MODES:
            raise FaultPlanError(
                f"unknown corruption mode {self.mode!r} "
                f"(use one of {CORRUPTION_MODES})"
            )

    def matches(self, site: str, name: str, key: str, kind: str,
                attempt: int) -> bool:
        """Whether this rule applies at a site occurrence (ignoring the
        per-process ``times`` budget, which the plan tracks)."""
        if site != self.site:
            return False
        if self.max_attempts and attempt >= self.max_attempts:
            return False
        if self.key_prefix and not key.startswith(self.key_prefix):
            return False
        if name != self.name and not fnmatch(name, self.name):
            return False
        return fnmatch(kind, self.kind) if kind else self.kind in ("*", "")

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "FaultRule":
        if not isinstance(data, dict):
            raise FaultPlanError("each fault rule must be a JSON object")
        unknown = sorted(set(data) - {
            "site", "name", "key_prefix", "kind", "max_attempts", "times",
            "seconds", "mode", "note",
        })
        if unknown:
            raise FaultPlanError(
                f"unknown fault rule field(s): {', '.join(unknown)}"
            )
        if "site" not in data:
            raise FaultPlanError("fault rule needs a 'site'")
        try:
            return FaultRule(**data)
        except TypeError as error:
            raise FaultPlanError(f"invalid fault rule: {error}") from None


@dataclass
class FaultPlan:
    """A seeded list of :class:`FaultRule`, with per-process firing
    counters.

    Counters are process-local on purpose: a ``worker.crash`` rule
    counts inside the worker it kills, a ``cache.torn_write`` rule in
    whatever process ran the store.  Determinism comes from the match
    predicates (name/key/kind/attempt), not from cross-process counter
    state — plans meant to be byte-reproducible bound their rules with
    ``max_attempts``/``key_prefix``/``name`` rather than ``times``.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    _fired: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.rules = tuple(self.rules)
        self._fired = [0] * len(self.rules)

    def match(self, site: str, *, name: str = "", key: str = "",
              kind: str = "", attempt: int = 0) -> FaultRule | None:
        """First applicable rule with budget remaining (and burn one
        firing from its budget), or ``None``."""
        for index, rule in enumerate(self.rules):
            if rule.times is not None and self._fired[index] >= rule.times:
                continue
            if rule.matches(site, name, key, kind, attempt):
                self._fired[index] += 1
                return rule
        return None

    def fired(self) -> int:
        """Total rule firings observed in this process."""
        return sum(self._fired)

    def corruption_bytes(self, key: str, length: int = 64) -> bytes:
        """Deterministic garbage for ``cache.corrupt``, keyed per entry
        by the plan seed."""
        rng = random.Random(f"{self.seed}:{key}")
        return bytes(rng.randrange(256) for _ in range(length))

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        unknown = sorted(set(data) - {"seed", "rules"})
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan field(s): {', '.join(unknown)}"
            )
        seed = data.get("seed", 0)
        if not isinstance(seed, int):
            raise FaultPlanError("seed must be an integer")
        rules_data = data.get("rules", [])
        if not isinstance(rules_data, list):
            raise FaultPlanError("rules must be a JSON array")
        rules = []
        for position, rule_data in enumerate(rules_data):
            try:
                rules.append(FaultRule.from_dict(rule_data))
            except FaultPlanError as error:
                # Name the offending rule: its position always, plus its
                # note/name/site when present — "rule #2 ('kill node B'):
                # unknown fault site ..." beats a bare rejection in a
                # plan with a dozen rules.
                label = ""
                if isinstance(rule_data, dict):
                    hint = (rule_data.get("note") or rule_data.get("name")
                            or rule_data.get("site"))
                    if hint:
                        label = f" ({hint!r})"
                raise FaultPlanError(
                    f"rule #{position}{label}: {error}"
                ) from None
        return FaultPlan(seed=seed, rules=tuple(rules))


def load_plan(path: str) -> FaultPlan:
    """Load and validate a fault plan JSON file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise FaultPlanError(f"cannot read fault plan {path}: {error}") \
            from None
    except json.JSONDecodeError as error:
        raise FaultPlanError(f"fault plan {path} is not valid JSON: {error}") \
            from None
    return FaultPlan.from_dict(data)
