"""Seeded, offline generator of an EasyList-scale filter list that must not
change any label on the corpus it is generated for.

Most rules on a real list never fire on a given crawl (Snyder et al., "Who
Filters the Filters", SIGMETRICS 2020); the matcher still pays for them.
The generated list mixes the syntax the matcher implements:

- decoy ``||host^`` anchors on hosts the corpus never contacts;
- path patterns with type and ``third-party`` options, on path words the
  corpus never uses;
- ``$domain=`` rules whose pattern does match corpus URLs but whose domains
  cover no visited site, so the matcher runs its per-context option loop;
- ``@@`` exceptions, some on decoy hosts and some on corpus hosts limited to
  unvisited sites;
- a few ``##`` element-hiding lines, which the parser must skip and count.

``inert_violations`` proves, with plain string operations and without the
package's matcher, that no generated rule can change a label.
"""

from __future__ import annotations

import random

HEADER = "! perfbench generated filter list"

_DECOY_PREFIXES = ("ads", "track", "pixel", "metrics", "tag", "stats", "cdn-ad")
_DECOY_STEMS = ("adnet", "clickserve", "bidhub", "trkline", "promoflow", "audix")
_DECOY_TLDS = ("com", "io", "org", "biz", "co.uk")
_PATH_STEMS = ("adzone", "banner", "sponsor", "popunder", "adframe", "promo")
_PATH_TAILS = ("*.js", "*.gif", "_*.png", "/*/show", ".html", "*/frame")
_TYPE_OPTIONS = ("script", "image", "subdocument", "xmlhttprequest")
_HIDING = ("##.ad-banner", "##div[id^=\"sponsor\"]", "###ad_slot", "##.promo-box")


def _decoy_host(rng: random.Random, k: int) -> str:
    return (
        f"{rng.choice(_DECOY_PREFIXES)}.{rng.choice(_DECOY_STEMS)}{k}."
        f"{rng.choice(_DECOY_TLDS)}"
    )


def _unvisited_domains(rng: random.Random, k: int) -> str:
    return "|".join(f"nosite{k}x{j}.org" for j in range(rng.randint(1, 3)))


def _options(rng: random.Random) -> list[str]:
    opts = []
    if rng.random() < 0.5:
        opts.extend(sorted(rng.sample(_TYPE_OPTIONS, rng.randint(1, 2))))
    if rng.random() < 0.6:
        opts.append("third-party")
    return opts


def _with_options(body: str, opts: list[str]) -> str:
    return f"{body}${','.join(opts)}" if opts else body


def generate_rules(
    n_rules: int, hosts: list[str], path_words: list[str], seed: int
) -> list[str]:
    """``n_rules`` lines (plus a header comment) from ``seed``.

    ``hosts`` and ``path_words`` come from the corpus; they give the
    ``$domain=`` rules and exceptions patterns that match its URLs.
    """
    rng = random.Random(f"perfbench-rules-{seed}")
    hosts = sorted(hosts)
    path_words = sorted(path_words)
    n_hiding = max(1, n_rules // 200)
    n_domain = n_rules * 15 // 100
    n_exception = n_rules * 15 // 100
    n_path = n_rules * 25 // 100
    n_host = n_rules - n_hiding - n_domain - n_exception - n_path
    lines = []
    for k in range(n_host):
        lines.append(_with_options(f"||{_decoy_host(rng, k)}^", _options(rng)))
    for k in range(n_path):
        body = f"/{rng.choice(_PATH_STEMS)}{k}{rng.choice(_PATH_TAILS)}"
        lines.append(_with_options(body, _options(rng)))
    for k in range(n_domain):
        if k % 2:
            body = f"||{rng.choice(hosts)}^"
        else:
            # ".net/" keeps the body from reading as an ABP /regex/ rule.
            body = f".net/{rng.choice(path_words)}/"
        opts = _options(rng) + [f"domain={_unvisited_domains(rng, k)}"]
        lines.append(_with_options(body, opts))
    for k in range(n_exception):
        if k % 2:
            body = f"@@||{rng.choice(hosts)}^"
            opts = [f"domain={_unvisited_domains(rng, n_domain + k)}"]
        else:
            body = f"@@||{_decoy_host(rng, n_host + k)}^"
            opts = _options(rng)
        lines.append(_with_options(body, opts))
    for k in range(n_hiding):
        lines.append(f"decoy{k}.com{rng.choice(_HIDING)}")
    rng.shuffle(lines)
    return [HEADER] + lines


def expected_skips(rules: list[str]) -> dict[str, int]:
    """Skip reasons the matcher must report for the generated lines."""
    comments = sum(1 for r in rules if r.startswith("!"))
    hiding = sum(1 for r in rules if "##" in r)
    return {"comment": comments, "element_hiding": hiding}


def _literals(body: str) -> list[str]:
    if body.startswith("||"):
        body = body[2:]
    body = body.strip("|")
    out = []
    for part in body.replace("^", "*").split("*"):
        if part:
            out.append(part.lower())
    return out


def _covers(site: str, domain: str) -> bool:
    return site == domain or site.endswith("." + domain)


def inert_violations(rules: list[str], urls: list[str], sites: set[str]) -> list[str]:
    """Generated rules that could change a label on the corpus (want none).

    A rule is inert when some literal run of its pattern occurs in no corpus
    URL (so its pattern matches none), or when it carries only positive
    ``domain=`` entries and none of them covers a visited site (so its
    options fail in every context). Element-hiding lines and comments are
    skipped by the parser. Bodies that read as ``/regex/`` rules are
    rejected too: the matcher's treatment of those is not this list's test.
    """
    blob = "\n".join(url.lower() for url in urls)
    bad = []
    for rule in rules:
        if rule.startswith("!") or "##" in rule:
            continue
        body = rule[2:] if rule.startswith("@@") else rule
        opts = []
        if "$" in body:
            body, opt_text = body.rsplit("$", 1)
            opts = opt_text.split(",")
        if len(body) > 1 and body.startswith("/") and body.endswith("/"):
            bad.append(rule)
            continue
        domains = [
            d
            for opt in opts
            if opt.startswith("domain=")
            for d in opt[len("domain="):].split("|")
        ]
        if domains and not any(d.startswith("~") for d in domains):
            if not any(_covers(site, d) for site in sites for d in domains):
                continue
        literals = _literals(body)
        if literals and any(lit not in blob for lit in literals):
            continue
        bad.append(rule)
    return bad
