"""Adblock-style filter rules: parsing, and matching and labeling documents.

Covers the URL-level blocking subset of the syntax: "||" host anchors, "|"
start/end anchors, "*" wildcards, "^" separators, "@@" exceptions, and the
options that map onto our four interaction kinds plus third-party and
domain= restrictions. Everything else is skipped loudly; a partially
honored rule would silently corrupt labels.

Matching is token-indexed; rules fall into three buckets. A rule's
complete tokens are the [a-z0-9%] runs of its pattern that every URL it
matches holds as whole runs, so a rule with one is keyed by a token. A
rule with none is keyed by a left-bounded run: one that a non-token
character, "^" or an anchored start precedes, so in any URL it matches it
begins a token. Only rules with neither form the fallback bucket. A URL's
candidates are the fallback bucket, the rules keyed by one of its tokens
and the rules keyed by a prefix of one. The index takes each rule's runs
as it is built.

One pass reads a document: its URLs, its kind and the sites it was seen
on, each site one context. Options come before regexes. A candidate's
options are checked once per document into a mask of the site contexts
they pass in, and its regex runs only when that mask adds a context the
URL is not yet blocked (or excepted) in. A rule's regex source is built
and compiled on first use.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from .domains import registrable_domain
from .forest import CLASSES
from .graph import SubdomainDocument

BENIGN, ADTRACKER = CLASSES

KIND_TO_OPTION = {
    "script": "script",
    "media": "image",
    "iframe": "subdocument",
    "other": "xmlhttprequest",
}
TYPE_OPTIONS = frozenset(KIND_TO_OPTION.values())

_SEPARATOR_RE = r"(?:[^a-z0-9_.%-]|$)"
_TOKEN_RE = re.compile(r"[a-z0-9%]+")
_REGEX_OF = {"*": ".*", "^": _SEPARATOR_RE}


@dataclass(frozen=True)
class Rule:
    raw: str
    body: str  # lower-cased pattern, anchors and options stripped
    anchors: tuple[bool, bool, bool]  # hostname "||", start "|", end "|"
    is_exception: bool
    type_options: frozenset[str]
    third_party: bool | None  # None = unrestricted
    domains_pos: tuple[str, ...]
    domains_neg: tuple[str, ...]

    @cached_property
    def pattern(self) -> str:
        """Regex source over the lower-cased URL."""
        return _pattern_to_regex(self.body, *self.anchors)

    @cached_property
    def regex(self) -> re.Pattern:
        return re.compile(self.pattern)


def _rarest(keys: tuple[str, ...], freq: Counter) -> str:
    """Fewest rules in the list, then the longer key, then the smaller."""
    return min(keys, key=lambda k: (freq[k], -len(k), k))


class _RuleIndex:
    """One rule list in three buckets: a rule is keyed by its rarest
    complete token, else by its rarest left-bounded run, which any URL it
    matches holds as a token prefix; rules with neither form the fallback
    bucket every URL tests."""

    def __init__(self, rules: list[Rule]):
        self.rules = rules
        runs = [_token_runs(r.body, r.anchors[0] or r.anchors[1], r.anchors[2]) for r in rules]
        token_freq = Counter(t for tokens, _ in runs for t in tokens)
        prefix_freq = Counter(p for tokens, prefixes in runs if not tokens for p in prefixes)
        by_token: defaultdict[str, list[int]] = defaultdict(list)
        by_prefix: defaultdict[str, list[int]] = defaultdict(list)
        self.fallback: list[int] = []
        for i, (tokens, prefixes) in enumerate(runs):
            if tokens:
                by_token[_rarest(tokens, token_freq)].append(i)
            elif prefixes:
                by_prefix[_rarest(prefixes, prefix_freq)].append(i)
            else:
                self.fallback.append(i)
        self.by_token = dict(by_token)
        self.by_prefix = dict(by_prefix)
        self.prefix_lengths = sorted({len(p) for p in by_prefix})

    def candidates(self, url_tokens: Iterable[str]) -> list[Rule]:
        """The rules a URL with these tokens can match, each once, in list order."""
        ids = list(self.fallback)
        for t in url_tokens:
            ids.extend(self.by_token.get(t, ()))
            for n in self.prefix_lengths:
                if n > len(t):
                    break
                ids.extend(self.by_prefix.get(t[:n], ()))
        # Two tokens can share a prefix key.
        return [self.rules[i] for i in sorted(set(ids))]


@dataclass
class RuleSet:
    """Block and exception rules, each list indexed once at construction;
    the lists are not to be changed afterwards."""

    block_rules: list[Rule]
    exception_rules: list[Rule]
    skip_report: Counter
    block_index: _RuleIndex = field(init=False, repr=False, compare=False)
    exception_index: _RuleIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.block_index = _RuleIndex(self.block_rules)
        self.exception_index = _RuleIndex(self.exception_rules)

    @property
    def rule_count(self) -> int:
        return len(self.block_rules) + len(self.exception_rules)


@dataclass(frozen=True)
class Label:
    label: str  # ADTRACKER or BENIGN


def _pattern_to_regex(
    body: str, hostname_anchor: bool, start_anchor: bool, end_anchor: bool
) -> str:
    rx = "".join(_REGEX_OF.get(ch) or re.escape(ch) for ch in body)
    if hostname_anchor:
        # Host must end with the pattern's host part at a label boundary.
        rx = r"^https?://(?:[^/?#]*\.)?" + rx
    elif start_anchor:
        rx = "^" + rx
    return rx + "$" if end_anchor else rx


def _token_runs(
    body: str, start_bounded: bool, end_bounded: bool
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(complete tokens, other left-bounded runs) of ``body``'s [a-z0-9%] runs.

    A side of a run is bounded when it is a literal non-token character,
    ``^``, or an anchored edge of the pattern; a side next to ``*`` or at
    an unanchored edge can extend into more token characters in the URL.
    Every matched URL holds a run bounded on both sides (complete) as a
    whole token, and a run bounded on the left as the start of a token:
    ``^`` cannot match the end of the URL with the run still to come.
    """
    complete: dict[str, None] = {}
    left_bounded: dict[str, None] = {}
    for m in _TOKEN_RE.finditer(body):
        start, end = m.span()
        left = body[start - 1] != "*" if start else start_bounded
        right = body[end] != "*" if end < len(body) else end_bounded
        if left:
            (complete if right else left_bounded)[m.group()] = None
    return tuple(complete), tuple(left_bounded)


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
    if not body.isprintable():
        return "unprintable_pattern"  # url_host refuses every URL it could match
    if len(body) > 1 and body.startswith("/") and body.endswith("/"):
        return "regex_rule"  # ABP reads /.../ as a regular expression

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
        body=body.lower(),
        anchors=(hostname_anchor, start_anchor, end_anchor),
        is_exception=is_exception,
        type_options=frozenset(type_options),
        third_party=third_party,
        domains_pos=tuple(domains_pos),
        domains_neg=tuple(domains_neg),
    )


def parse_rules(text: str) -> RuleSet:
    """Parse filter-list text; every non-empty line is parsed or tallied.
    Lines end at "\\n" only: a form feed or U+2028, say, is part of a rule,
    so no such character splits one rule into two."""
    block: list[Rule] = []
    exceptions: list[Rule] = []
    skipped: Counter = Counter()
    for raw_line in text.split("\n"):
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


def _context_mask(rule: Rule, url_domain: str, option: str | None, sites: list[str]) -> int:
    """Bit i is set when the rule's options pass for a URL on ``url_domain``
    loaded as type ``option`` on the page of ``sites[i]``."""
    if rule.type_options and option not in rule.type_options:
        return 0
    if rule.third_party is None and not (rule.domains_pos or rule.domains_neg):
        return (1 << len(sites)) - 1
    return sum(
        1 << i
        for i, page in enumerate(sites)
        if (rule.third_party is None or (url_domain != page) == rule.third_party)
        and not any(_domain_covers(page, d) for d in rule.domains_neg)
        and (not rule.domains_pos or any(_domain_covers(page, d) for d in rule.domains_pos))
    )


def _blocked(rules: RuleSet, document: SubdomainDocument, exceptions: bool) -> bool:
    """Whether some URL of ``document`` is blocked in the context of some
    site it was seen on: a block rule matches it there and, when
    ``exceptions``, no exception rule does. URLs go in sorted order; a
    rule's context mask is taken at most once a call; exception
    candidates are fetched only for a URL some block rule hits."""
    url_domain = registrable_domain(document.host)
    option = KIND_TO_OPTION.get(document.kind)
    sites = sorted(document.sites)
    masks: dict[int, int] = {}

    def hits(index: _RuleIndex, url_lower: str, tokens: frozenset[str], wanted: int) -> int:
        """The wanted context bits in which some rule of ``index`` hits."""
        held = 0
        for r in index.candidates(tokens):
            m = masks.get(id(r))
            if m is None:
                m = masks[id(r)] = _context_mask(r, url_domain, option, sites)
            if m & wanted & ~held and r.regex.search(url_lower):
                held |= m & wanted
                if held == wanted:
                    break
        return held

    full = (1 << len(sites)) - 1
    for url in sorted(document.urls):
        url_lower = url.lower()
        tokens = frozenset(_TOKEN_RE.findall(url_lower))
        blocked = hits(rules.block_index, url_lower, tokens, full)
        if blocked and (
            not exceptions or blocked & ~hits(rules.exception_index, url_lower, tokens, blocked)
        ):
            return True
    return False


def label_document(rules: RuleSet, document: SubdomainDocument) -> Label:
    """AdTracker iff any URL is blocked in any contributing site's context.

    Every URL of a document is on its host, as the graph builds and loads it.
    """
    return Label(ADTRACKER if _blocked(rules, document, exceptions=True) else BENIGN)


def document_block_matched(rules: RuleSet, document: SubdomainDocument) -> bool:
    """Whether any document URL hits a block rule in any context.

    Exceptions are ignored: this asks if the lists already cover the host,
    not whether the final verdict is blocked.
    """
    return _blocked(rules, document, exceptions=False)
