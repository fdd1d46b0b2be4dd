import pytest
from hypothesis import given, strategies as st

from widetrack.domains import DomainError, registrable_domain


def test_cross_label_extraction():
    assert registrable_domain("adservice.google.com") == "google.com"
    assert registrable_domain("translate.google.com") == "google.com"
    assert registrable_domain("www.example.com") == "example.com"


def test_second_level_registry():
    # checked against the vendored snapshot: co.uk is a public suffix
    assert registrable_domain("example.co.uk") == "example.co.uk"
    assert registrable_domain("www.example.co.uk") == "example.co.uk"
    assert registrable_domain("deep.www.example.co.uk") == "example.co.uk"


def test_ip_literals_pass_through():
    assert registrable_domain("127.0.0.1") == "127.0.0.1"
    assert registrable_domain("::1") == "::1"
    assert registrable_domain("[2001:db8::1]") == "[2001:db8::1]"


def test_unknown_tld_falls_back_to_one_label():
    assert registrable_domain("foo.bar.zz") == "bar.zz"


def test_wildcard_and_exception_rules():
    # *.ck makes the second-level label part of the suffix
    assert registrable_domain("shop.foo.ck") == "shop.foo.ck"
    # !www.ck carves www.ck back out as registrable
    assert registrable_domain("www.ck") == "www.ck"
    assert registrable_domain("deep.www.ck") == "www.ck"


def test_bare_suffix_returns_itself():
    assert registrable_domain("com") == "com"
    assert registrable_domain("co.uk") == "co.uk"


def test_normalization():
    assert registrable_domain("WWW.Example.COM.") == "example.com"


def test_empty_hostname_rejected():
    with pytest.raises(DomainError):
        registrable_domain("")
    with pytest.raises(DomainError):
        registrable_domain("a..b.com")



@pytest.mark.parametrize("hostname", ["a\tb.net", "a\x85b.net", "px.t.net\x00"])
def test_unprintable_hostname_rejected(hostname):
    """A tab or line break would end a cell or row of a TSV artifact."""
    with pytest.raises(DomainError, match="is not printable"):
        registrable_domain(hostname)


_labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
_suffixes = st.sampled_from(["com", "net", "co.uk", "org", "de", "com.au", "zz"])


@given(st.lists(_labels, min_size=0, max_size=3), _suffixes)
def test_idempotent(labels, suffix):
    host = ".".join(labels + [suffix])
    first = registrable_domain(host)
    assert registrable_domain(first) == first
