"""Adblock-style filter rules: parsing, URL matching, document labeling.

Covers the URL-level blocking subset of the syntax: "||" host anchors, "|"
start/end anchors, "*" wildcards, "^" separators, "@@" exceptions, and the
options that map onto our four interaction kinds plus third-party and
domain= restrictions. Everything else is skipped loudly; a partially
honored rule would silently corrupt labels.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from urllib.parse import urlsplit

from .domains import registrable_domain
from .graph import SubdomainDocument

ADTRACKER = "adtracker"
BENIGN = "benign"

TYPE_OPTIONS = frozenset({"script", "image", "subdocument", "xmlhttprequest"})

KIND_TO_OPTION = {
    "script": "script",
    "media": "image",
    "iframe": "subdocument",
    "other": "xmlhttprequest",
}

_SEPARATOR_RE = r"(?:[^a-z0-9_.%-]|$)"


@dataclass(frozen=True)
class Rule:
    raw: str
    regex: re.Pattern
    is_exception: bool
    type_options: frozenset[str]
    third_party: bool | None  # None = unrestricted
    domains_pos: tuple[str, ...]
    domains_neg: tuple[str, ...]


@dataclass
class RuleSet:
    block_rules: list[Rule]
    exception_rules: list[Rule]
    skip_report: Counter

    @property
    def rule_count(self) -> int:
        return len(self.block_rules) + len(self.exception_rules)


@dataclass(frozen=True)
class MatchContext:
    page_domain: str  # registrable domain of the visited site
    kind: str  # interaction kind value


@dataclass(frozen=True)
class Label:
    label: str  # ADTRACKER or BENIGN
    source: str  # "filterlist" or "override"


def _pattern_to_regex(
    body: str, hostname_anchor: bool, start_anchor: bool, end_anchor: bool
) -> re.Pattern:
    parts = []
    for ch in body:
        if ch == "*":
            parts.append(".*")
        elif ch == "^":
            parts.append(_SEPARATOR_RE)
        else:
            parts.append(re.escape(ch))
    rx = "".join(parts)
    if hostname_anchor:
        # Host must end with the pattern's host part at a label boundary.
        rx = r"^https?://(?:[^/?#]*\.)?" + rx
    elif start_anchor:
        rx = "^" + rx
    if end_anchor:
        rx += "$"
    return re.compile(rx)


def _parse_line(line: str) -> Rule | str:
    """One rule or a skip reason."""
    if line.startswith("!") or line.startswith("[Adblock"):
        return "comment"
    if "##" in line or "#@#" in line or "#?#" in line:
        return "element_hiding"

    body = line
    is_exception = body.startswith("@@")
    if is_exception:
        body = body[2:]

    type_options: set[str] = set()
    third_party: bool | None = None
    domains_pos: list[str] = []
    domains_neg: list[str] = []
    if "$" in body:
        body, opts_text = body.rsplit("$", 1)
        for opt in opts_text.split(","):
            opt = opt.strip().lower()
            if opt == "third-party":
                third_party = True
            elif opt == "~third-party":
                third_party = False
            elif opt in TYPE_OPTIONS:
                type_options.add(opt)
            elif opt.startswith("domain="):
                for dom in opt[len("domain="):].split("|"):
                    dom = dom.strip()
                    if dom.startswith("~"):
                        domains_neg.append(dom[1:])
                    elif dom:
                        domains_pos.append(dom)
            else:
                return "unsupported_option"

    hostname_anchor = body.startswith("||")
    if hostname_anchor:
        body = body[2:]
    start_anchor = not hostname_anchor and body.startswith("|")
    if start_anchor:
        body = body[1:]
    end_anchor = body.endswith("|")
    if end_anchor:
        body = body[:-1]

    if not body and not (type_options or third_party is not None or domains_pos):
        return "empty_pattern"

    return Rule(
        raw=line,
        regex=_pattern_to_regex(
            body.lower(), hostname_anchor, start_anchor, end_anchor
        ),
        is_exception=is_exception,
        type_options=frozenset(type_options),
        third_party=third_party,
        domains_pos=tuple(domains_pos),
        domains_neg=tuple(domains_neg),
    )


def parse_rules(text: str) -> RuleSet:
    """Parse filter-list text; every non-empty line is parsed or tallied."""
    block: list[Rule] = []
    exceptions: list[Rule] = []
    skipped: Counter = Counter()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        parsed = _parse_line(line)
        if isinstance(parsed, str):
            skipped[parsed] += 1
        elif parsed.is_exception:
            exceptions.append(parsed)
        else:
            block.append(parsed)
    return RuleSet(block_rules=block, exception_rules=exceptions, skip_report=skipped)


def _domain_covers(page_domain: str, rule_domain: str) -> bool:
    return page_domain == rule_domain or page_domain.endswith("." + rule_domain)


def _options_pass(rule: Rule, url_domain: str, ctx: MatchContext) -> bool:
    if rule.type_options and KIND_TO_OPTION.get(ctx.kind) not in rule.type_options:
        return False
    if rule.third_party is not None:
        if (url_domain != ctx.page_domain) != rule.third_party:
            return False
    if rule.domains_neg and any(
        _domain_covers(ctx.page_domain, d) for d in rule.domains_neg
    ):
        return False
    if rule.domains_pos and not any(
        _domain_covers(ctx.page_domain, d) for d in rule.domains_pos
    ):
        return False
    return True


def _rule_applies(rule: Rule, url_lower: str, url_domain: str, ctx: MatchContext) -> bool:
    return _options_pass(rule, url_domain, ctx) and rule.regex.search(url_lower) is not None


def _url_targets(urls) -> Iterator[tuple[str, str]]:
    """(lower-cased URL, its registrable domain) for each URL with a
    hostname, in sorted order; hostless URLs match nothing."""
    for url in sorted(urls):
        url_lower = url.lower()
        host = urlsplit(url_lower).hostname
        if host:
            yield url_lower, registrable_domain(host)


def matches(rules: RuleSet, url: str, ctx: MatchContext) -> bool:
    """True when some block rule matches and no exception rule does."""
    return any(
        any(_rule_applies(r, url_lower, url_domain, ctx) for r in rules.block_rules)
        and not any(
            _rule_applies(r, url_lower, url_domain, ctx) for r in rules.exception_rules
        )
        for url_lower, url_domain in _url_targets([url])
    )


def label_document(
    rules: RuleSet,
    document: SubdomainDocument,
    overrides: dict[str, str] | None = None,
) -> Label:
    """AdTracker iff any URL is blocked in any contributing site's context.

    An override entry for the document's host beats the filter-list verdict.
    Each regex runs once per URL; contexts only re-check rule options.
    """
    if overrides and document.host in overrides:
        return Label(overrides[document.host], "override")
    contexts = [
        MatchContext(site, document.kind) for site in sorted(document.sites)
    ]
    for url_lower, url_domain in _url_targets(document.urls):
        blocks = [r for r in rules.block_rules if r.regex.search(url_lower)]
        if not blocks:
            continue
        exceptions = None
        for ctx in contexts:
            if not any(_options_pass(r, url_domain, ctx) for r in blocks):
                continue
            if exceptions is None:
                exceptions = [
                    r for r in rules.exception_rules if r.regex.search(url_lower)
                ]
            if not any(_options_pass(r, url_domain, ctx) for r in exceptions):
                return Label(ADTRACKER, "filterlist")
    return Label(BENIGN, "filterlist")


def document_block_matched(rules: RuleSet, document: SubdomainDocument) -> bool:
    """Whether any document URL hits a block rule in any context.

    Exceptions are ignored: this asks if the lists already cover the host,
    not whether the final verdict is blocked.
    """
    contexts = [
        MatchContext(site, document.kind) for site in sorted(document.sites)
    ]
    for url_lower, url_domain in _url_targets(document.urls):
        blocks = [r for r in rules.block_rules if r.regex.search(url_lower)]
        if any(
            _options_pass(r, url_domain, ctx) for ctx in contexts for r in blocks
        ):
            return True
    return False


def parse_overrides(text: str) -> dict[str, str]:
    """hostname<TAB>adtracker|benign lines; '#'/'!' comments allowed."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", "!")):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in (ADTRACKER, BENIGN):
            raise ValueError(f"bad override on line {lineno}: {raw!r}")
        out[parts[0]] = parts[1]
    return out
