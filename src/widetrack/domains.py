"""Registrable-domain (eTLD+1) extraction against a vendored suffix snapshot.

The snapshot lives in ``data/public_suffix_snapshot.dat`` and is the single
source of truth for suffix decisions, so results are reproducible offline.
"""

from __future__ import annotations

import functools
import ipaddress
from importlib import resources

from .lines import read_lines


class DomainError(ValueError):
    """Raised for hostnames we refuse to interpret (empty, all-dots, ...)."""


def _load_rules() -> dict[str, list[tuple[tuple[str, ...], bool]]]:
    """Parse the snapshot into rules bucketed by their final label.

    Each rule is (labels, is_exception). "*" labels match exactly one
    hostname label, as in the upstream public-suffix format.
    """
    snapshot = resources.files("widetrack.data").joinpath("public_suffix_snapshot.dat")
    with snapshot.open("rb") as raw:
        lines = [line.strip() for _, line in read_lines(raw, snapshot.name, DomainError)]
    buckets: dict[str, list[tuple[tuple[str, ...], bool]]] = {}
    for line in lines:
        if not line or line.startswith("//"):
            continue
        is_exception = line.startswith("!")
        if is_exception:
            line = line[1:]
        labels = tuple(line.lower().split("."))
        buckets.setdefault(labels[-1], []).append((labels, is_exception))
    return buckets


_RULES = _load_rules()


def _rule_matches(rule: tuple[str, ...], labels: tuple[str, ...]) -> bool:
    if len(rule) > len(labels):
        return False
    return all(r == "*" or r == h for r, h in zip(reversed(rule), reversed(labels)))


@functools.lru_cache(maxsize=65536)
def registrable_domain(hostname: str) -> str:
    """Return the public-suffix-plus-one domain for ``hostname``.

    IP literals pass through verbatim. A hostname that is itself a public
    suffix is returned unchanged, which keeps the function idempotent and
    total over valid names. A hostname that is not printable is refused:
    a tab or line break would end a cell or row of a TSV artifact.
    """
    if not hostname:
        raise DomainError("empty hostname")
    host = hostname.strip().lower().rstrip(".")
    if not host:
        raise DomainError("hostname %r has no labels" % hostname)
    if not host.isprintable():
        raise DomainError("hostname %r is not printable" % hostname)

    try:
        ipaddress.ip_address(host)
        return host
    except ValueError:
        pass
    # Bracketed IPv6 literal as it appears in URLs.
    if host.startswith("[") and host.endswith("]"):
        try:
            ipaddress.ip_address(host[1:-1])
            return host
        except ValueError:
            pass

    labels = tuple(host.split("."))
    if any(not lab for lab in labels):
        raise DomainError("hostname %r has an empty label" % hostname)

    suffix_len = 1  # implicit "*" rule: the final label is a public suffix
    exception_len = None
    for rule, is_exception in _RULES.get(labels[-1], ()):
        if not _rule_matches(rule, labels):
            continue
        if is_exception:
            exception_len = len(rule) - 1
        else:
            suffix_len = max(suffix_len, len(rule))
    if exception_len is not None:
        suffix_len = exception_len

    if len(labels) <= suffix_len:
        return host
    return ".".join(labels[-(suffix_len + 1):])
