"""Adblock-style filter rules: parsing, and matching and labeling documents.

Covers the URL-level blocking subset of the syntax: "||" host anchors, "|"
start/end anchors, "*" wildcards, "^" separators, "@@" exceptions, and the
options that map onto our four interaction kinds plus third-party and
domain= restrictions. Everything else is skipped loudly; a partially
honored rule would silently corrupt labels.

Matching is token-indexed. A rule's complete tokens are the [a-z0-9%]
runs of its pattern that every URL it matches holds as whole runs; its
left-bounded runs are those a non-token character, "^" or an anchored
start precedes, so in any URL it matches each begins a token. A rule is
keyed by a complete token, else by a left-bounded run, else falls back. A
URL's candidates are the fallback and the rules keyed by one of its tokens
or by a prefix of one; a token-keyed rule whose domain= entries are all
positive is one only on a page seen under a dot-suffix of one of them.

One pass reads a document: its URLs, its kind and the sites it was seen
on, each site one context. Options come before URL tests. A candidate's
options are checked once per document into a mask of the site contexts
they pass in, read off a table of the sites' dot-suffixes, and it tests
the URL only when that mask adds a context the URL is not yet blocked (or
excepted) in. A rule's test is built on first use: a string scan when its
body is literal (no "*", "^" only last), else its regex, compiled then.
A label records whether any block rule hit, exceptions aside.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import chain, combinations, product
from operator import or_

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
_ANCHORS = {a: a for a in product((False, True), repeat=3)}  # one object each, rules share it
_TYPE_SETS = {s: s for s in map(frozenset, chain.from_iterable(
    combinations(TYPE_OPTIONS, n) for n in range(len(TYPE_OPTIONS) + 1)))}

_SEPARATOR_RE = r"(?:[^a-z0-9_.%-]|$)"
_NOT_SEPARATORS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_.%-")
_AUTHORITY_RE = re.compile(r"https?://([^/?#]*)")
_TOKEN_RE = re.compile(r"[a-z0-9%]+")
_REGEX_OF = {"*": ".*", "^": _SEPARATOR_RE}
# A cosmetic or scriptlet separator: "#", an optional "@", one of "", "?",
# "$", "$?" or "%", and "#"; every one is skipped, never read as a URL rule.
_COSMETIC_RE = re.compile(r"#@?(?:\$\??|\?|%)?#")


@dataclass
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

    @cached_property
    def check(self) -> Callable[[str], object]:
        """The rule's test of a lower-cased URL, true where ``regex.search``
        finds a match: a string scan when the body is literal (no "*", "^"
        only last), else the search itself. The URL must be printable, as
        ``url_host`` and ``load_graph`` require: "$" also matches before a
        final "\\n", which the scan does not."""
        body = self.body
        if "*" in body or "^" in body[:-1]:
            return self.regex.search
        return partial(_scan, body.removesuffix("^"), body.endswith("^"), *self.anchors)


def _rarest(keys: tuple[str, ...], freq: Counter) -> str:
    """Fewest rules in the list, then the longer key, then the smaller."""
    counts = list(map(freq.__getitem__, keys))
    fewest = min(counts)
    if counts.count(fewest) == 1:
        return keys[counts.index(fewest)]
    return min(keys, key=lambda k: (freq[k], -len(k), k))


class _RuleIndex:
    """One rule list in three buckets: a rule is keyed by its rarest complete
    token, else its rarest left-bounded run, else falls back; a token-keyed rule
    whose domain= entries are all positive is filed by key, then by domain."""

    def __init__(self, rules: list[Rule]):
        self.rules = rules
        runs = [_token_runs(r.body, r.anchors[0] or r.anchors[1], r.anchors[2]) for r in rules]
        token_freq = Counter(t for tokens, _ in runs for t in tokens)
        prefix_freq = Counter(p for tokens, prefixes in runs if not tokens for p in prefixes)
        by_token: defaultdict[str, list[int]] = defaultdict(list)
        by_prefix: defaultdict[str, list[int]] = defaultdict(list)
        by_site: defaultdict[str, dict[str, list[int]]] = defaultdict(partial(defaultdict, list))
        self.fallback: list[int] = []
        for i, (tokens, prefixes) in enumerate(runs):
            keys, table, freq = (
                (tokens, by_token, token_freq) if tokens else (prefixes, by_prefix, prefix_freq)
            )
            if keys:  # a single key needs no ranking
                key = keys[0] if len(keys) == 1 else _rarest(keys, freq)
                if tokens and rules[i].domains_pos and not rules[i].domains_neg:
                    for domain in rules[i].domains_pos:
                        by_site[key][domain].append(i)
                else:
                    table[key].append(i)
            else:
                self.fallback.append(i)
        self.by_site = dict(by_site)
        self.by_token = dict(by_token)
        self.by_prefix = dict(by_prefix)
        # Each prefix key is also filed under its first head_length characters.
        self.head_length = min(map(len, by_prefix), default=0)
        by_head: defaultdict[str, list[str]] = defaultdict(list)
        for p in by_prefix:
            by_head[p[:self.head_length]].append(p)
        self.by_head = dict(by_head)

    def drawn(self, contexts: _Contexts) -> Callable[[frozenset[str]], list[Rule]]:
        """``candidates``, then in list order the rules filed under a URL token
        and a dot-suffix of the page's sites; no site table unless some are."""
        if not self.by_site:
            return self.candidates
        by_site, covers = self.by_site, contexts.table[0].keys()
        return lambda url_tokens: self.candidates(url_tokens) + [self.rules[i] for i in sorted({
            i for t in by_site.keys() & url_tokens for d in by_site[t].keys() & covers
            for i in by_site[t][d]
        })]

    def candidates(self, url_tokens: Iterable[str]) -> list[Rule]:
        """The rules a URL with these tokens can match, each once, in list order."""
        ids = list(self.fallback)
        for t in self.by_token.keys() & url_tokens:
            ids.extend(self.by_token[t])
        by_head, n = self.by_head, self.head_length
        for t in [t for t in url_tokens if t[:n] in by_head] if by_head else ():
            for p in by_head[t[:n]]:
                if t.startswith(p):
                    ids.extend(self.by_prefix[p])
        # Two tokens can share a prefix key.
        return [self.rules[i] for i in sorted(set(ids))] if ids else []


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
    # Whether a block rule hits some URL in some context, exceptions aside
    # (always so for an AdTracker); None when the label was read from a file.
    block_matched: bool | None = None


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


def _scan(lit: str, sep: bool, host: bool, start: bool, end: bool, url: str) -> bool:
    """Whether ``url`` holds ``lit`` where the anchors let it start, then a
    separator (a character outside [a-z0-9_.%-], or the end) when ``sep``."""
    n = len(url)
    lo, hi = 0, 0 if start else n
    if host:  # at the authority's start or just after a "." in it
        m = _AUTHORITY_RE.match(url)
        if m is None:
            return False
        lo, hi = m.span(1)
    i = url.find(lit, lo)
    while 0 <= i <= hi:
        e = i + len(lit)
        if (i == lo or not host or url[i - 1] == ".") and (
            e == n
            or not (sep or end)
            or sep and url[e] not in _NOT_SEPARATORS and (not end or e + 1 == n)
        ):
            return True
        i = url.find(lit, i + 1)
    return False


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
    if "*" not in body:  # only a run at an unanchored edge is unbounded
        runs = _TOKEN_RE.findall(body)
        if runs and not start_bounded and body.startswith(runs[0]):
            del runs[0]
        if runs and not end_bounded and body.endswith(runs[-1]):
            return tuple(dict.fromkeys(runs[:-1])), (runs[-1],)
        return tuple(dict.fromkeys(runs)), ()
    complete: dict[str, None] = {}
    left_bounded: dict[str, None] = {}
    last = len(body)
    for m in _TOKEN_RE.finditer(body):
        start, end = m.span()
        if body[start - 1] != "*" if start else start_bounded:
            right = body[end] != "*" if end < last else end_bounded
            (complete if right else left_bounded)[m.group()] = None
    return tuple(complete), tuple(left_bounded)


def _parse_line(line: str) -> Rule | str:
    """One rule or a skip reason."""
    if line.startswith(("!", "[Adblock")):
        return "comment"
    if "#" in line and _COSMETIC_RE.search(line):
        return "element_hiding"

    body = line
    is_exception = body.startswith("@@")
    if is_exception:
        body = body[2:]

    type_options, domains_pos, domains_neg = frozenset(), (), ()
    third_party: bool | None = None
    if "$" in body:
        if "$$" in body or "$@$" in body:
            return "element_hiding"  # an HTML filter
        body, opts_text = body.rsplit("$", 1)
        types, pos, neg = set(), [], []
        for opt in opts_text.lower().split(","):
            opt = opt.strip()
            if opt == "third-party":
                third_party = True
            elif opt == "~third-party":
                third_party = False
            elif opt in TYPE_OPTIONS:
                types.add(opt)
            elif opt.startswith("domain="):
                for dom in opt[len("domain="):].split("|"):
                    dom = dom.strip()
                    if dom.startswith("~"):
                        neg.append(dom[1:])
                    elif dom:
                        pos.append(dom)
            else:
                return "unsupported_option"
        type_options, domains_pos, domains_neg = frozenset(types), tuple(pos), tuple(neg)
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
        anchors=_ANCHORS[hostname_anchor, start_anchor, end_anchor],
        is_exception=is_exception,
        type_options=_TYPE_SETS[type_options],
        third_party=third_party,
        domains_pos=domains_pos,
        domains_neg=domains_neg,
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


class _Contexts:
    """A document's site contexts, bit i for its i-th site in sorted order."""

    def __init__(self, document: SubdomainDocument):
        self.domain, self.sites = document.parent.domain, sorted(document.sites)
        self.full = (1 << len(self.sites)) - 1
        self.option = KIND_TO_OPTION.get(document.kind)

    @cached_property
    def table(self) -> tuple[dict[str, int], int]:
        """Each dot-suffix of a site, the site too, to the bits of the sites it
        covers; and the bits of the sites equal to the document's node domain,
        the URLs' registrable domain."""
        covers: dict[str, int] = {}
        same = 0
        for i, site in enumerate(self.sites):
            same |= (site == self.domain) << i
            suffix, dot = site, True
            while dot:
                covers[suffix] = covers.get(suffix, 0) | 1 << i
                _, dot, suffix = suffix.partition(".")
        return covers, same

    def mask(self, r: Rule) -> int:
        """Bit i is set when the rule's options pass on the i-th site's page."""
        if r.type_options and self.option not in r.type_options:
            return 0
        if r.third_party is None and not (r.domains_pos or r.domains_neg):
            return self.full
        covers, same = self.table
        m = self.full if r.third_party is None else self.full & ~same if r.third_party else same
        if r.domains_pos:
            m &= reduce(or_, [covers.get(d, 0) for d in r.domains_pos])
        for d in r.domains_neg:
            m &= ~covers.get(d, 0)
        return m


def label_document(rules: RuleSet, document: SubdomainDocument) -> Label:
    """AdTracker iff some URL of ``document`` is blocked in the context of
    some site it was seen on: a block rule matches it there and no exception
    rule does. The label records whether a block rule matches some URL in
    some context, exceptions aside. URLs go in sorted order; a rule's
    context mask is taken at most once a call; exception candidates are
    fetched only for a URL some block rule hits.

    Every URL of a document is on its host, as the graph builds and loads it.
    """
    contexts = _Contexts(document)
    masks: dict[int, int] = {}
    block, exception = rules.block_index.candidates, rules.exception_index.candidates
    if rules.block_index.by_site or rules.exception_index.by_site:
        block, exception = rules.block_index.drawn(contexts), rules.exception_index.drawn(contexts)

    def hits(candidates: Callable, url_lower: str, tokens: frozenset[str], wanted: int) -> int:
        """The wanted context bits in which one of the candidates hits."""
        held = 0
        for r in candidates(tokens):
            m = masks.get(id(r))
            if m is None:
                m = masks[id(r)] = contexts.mask(r)
            if m & wanted & ~held and r.check(url_lower):
                held |= m & wanted
                if held == wanted:
                    break
        return held

    matched = False
    for url in sorted(document.urls):
        url_lower = url.lower()
        tokens = frozenset(_TOKEN_RE.findall(url_lower))
        blocked = hits(block, url_lower, tokens, contexts.full)
        if blocked:
            matched = True
            if blocked & ~hits(exception, url_lower, tokens, blocked):
                return Label(ADTRACKER, True)
    return Label(BENIGN, matched)


def document_block_matched(rules: RuleSet, document: SubdomainDocument) -> bool:
    """Whether any document URL hits a block rule in any context, exceptions
    aside: the label pass's ``block_matched``. This asks if the lists
    already cover the host, not whether the final verdict is blocked."""
    return label_document(rules, document).block_matched
