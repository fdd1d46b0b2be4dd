"""Dependency trees written out by hand, carrying the hosts ingest reads.

``build_tree`` and ``DependencyTree.from_record`` hand every tree its node
URLs' hosts; a test that writes a tree out passes them through
``hand_tree``. Imported by the test modules beside it.
"""

from collections import Counter

from widetrack.ingest import DependencyTree, url_host


def hand_tree(root_url, root_domain, nodes, edges):
    """The tree of ``nodes`` (URL -> kind) and ``edges`` ((initiator URL,
    requested URL) -> multiplicity), each node URL's host read by
    ``url_host``; every node URL must be one ingest accepts."""
    hosts = {}
    for url in nodes:
        hosts[url], reason = url_host(url)
        assert reason is None, f"node url {url!r} is unusable: {reason}"
    return DependencyTree(
        root_url=root_url,
        root_domain=root_domain,
        nodes=nodes,
        edges=edges,
        diagnostics=Counter(),
        skipped=Counter(),
        hosts=hosts,
    )
