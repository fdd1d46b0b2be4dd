"""The document one URL makes when it is seen on one site.

The matcher reads documents, so a verdict on a single URL in a single
context is the verdict on this document. Imported by the test modules
beside it.
"""

from collections import Counter

from widetrack.domains import registrable_domain
from widetrack.graph import NodeKey, SubdomainDocument
from widetrack.ingest import url_host


def url_document(url, page, kind):
    """A one-URL, one-site document on the URL's host, with the parent the
    graph gives it; None for a URL ingest would skip."""
    host, _ = url_host(url)
    if host is None:
        return None
    return SubdomainDocument(
        host=host,
        kind=kind,
        urls=Counter([url]),
        sites={page},
        parent=NodeKey(registrable_domain(host), kind),
    )
