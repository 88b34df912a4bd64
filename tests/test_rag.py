"""Retrieval store tests.

The ranking oracle here is an independent pure-Python implementation of the
hashing embedder and cosine ranking; the store must agree with it exactly,
including tie-break order, because both paths do the same exact float64
arithmetic on integer-valued vectors.
"""

import hashlib
import json
import math
import random
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentestflow.gateway import ResponseSchema, register_schema
from pentestflow.rag import (
    CHUNK_OVERLAP,
    CHUNK_SIZE,
    CorpusCorrupt,
    CorpusMissing,
    EMBED_BLOCK,
    EmbedderMismatch,
    HashingEmbedder,
    RagStore,
    chunk_text,
    _token_slot,
    cosine_scores,
    cosine_similarity,
)

from conftest import scripted_session

# ---------------------------------------------------------------------------
# Reference implementations (test-side oracles)
# ---------------------------------------------------------------------------

_WORD = re.compile(r"[a-z0-9]+")


def oracle_embed(text: str, dimension: int = 256) -> list[int]:
    vec = [0] * dimension
    for token in _WORD.findall(text.lower()):
        slot = int.from_bytes(hashlib.md5(token.encode()).digest()[:4], "big")
        vec[slot % dimension] += 1
    return vec


def oracle_cosine(a: list[int], b: list[int]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na2 = sum(x * x for x in a)
    nb2 = sum(y * y for y in b)
    if na2 == 0 or nb2 == 0:
        return 0.0
    return max(-1.0, min(1.0, dot / math.sqrt(na2 * nb2)))


def oracle_chunk_count(length: int, size: int, overlap: int) -> int:
    if length == 0:
        return 0
    if length <= size:
        return 1
    return 1 + math.ceil((length - size) / (size - overlap))


def oracle_rank(chunks, query: str, dimension: int = 256):
    """chunks: list of (doc_id, chunk_index, text). Returns ordered keys."""
    qvec = oracle_embed(query, dimension)
    scored = [
        (-oracle_cosine(oracle_embed(text, dimension), qvec), doc_id, idx)
        for doc_id, idx, text in chunks
    ]
    return [(d, i) for _, d, i in sorted(scored)]


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------


def test_chunk_frozen_counts():
    # oracle_chunk_count(1200, 512, 64) = 1 + ceil(688/448) = 3, by hand
    assert len(chunk_text("x" * 1200)) == 3
    assert len(chunk_text("x" * 100)) == 1
    assert len(chunk_text("x" * 512)) == 1
    assert len(chunk_text("x" * 513)) == 2
    assert chunk_text("") == []


def test_chunk_parameter_validation():
    with pytest.raises(ValueError):
        chunk_text("abc", chunk_size=0)
    with pytest.raises(ValueError):
        chunk_text("abc", chunk_size=10, overlap=10)
    with pytest.raises(ValueError):
        chunk_text("abc", chunk_size=10, overlap=-1)


def test_chunk_structure_randomized():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randrange(2, 40)
        overlap = rng.randrange(0, size)
        length = rng.randrange(0, 300)
        text = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        chunks = chunk_text(text, size, overlap)
        assert len(chunks) == oracle_chunk_count(length, size, overlap)
        if not chunks:
            continue
        step = size - overlap
        for i, piece in enumerate(chunks):
            assert piece == text[i * step : i * step + size]
        # final chunk reaches the end of the text
        assert text.endswith(chunks[-1])
        assert all(len(piece) <= size for piece in chunks)


# ---------------------------------------------------------------------------
# Embedding and cosine
# ---------------------------------------------------------------------------


def test_hashing_embedder_matches_oracle():
    texts = [
        "nmap scan report for host",
        "Apache ActiveMQ 5.17.3",
        "the the the repeated tokens",
        "",
        "UPPER lower MiXeD 123",
    ]
    embedder = HashingEmbedder()
    matrix = embedder.embed(texts)
    assert matrix.shape == (5, 256)
    for row, text in zip(matrix, texts):
        assert row.tolist() == [float(v) for v in oracle_embed(text)]


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.text(max_size=200), max_size=4),
    start=st.integers(min_value=0, max_value=10**12),
    dimension=st.sampled_from([1, 7, 64, 256]),
)
def test_embed_matches_oracle_on_unicode_text(texts, start, dimension):
    # random unicode text plus tokens from a range far wider than the slot
    # cache, so rows are also checked while the cache evicts
    vocabulary = " ".join(f"w{start + i}" for i in range(500))
    texts = texts + [vocabulary]
    matrix = HashingEmbedder(dimension).embed(texts)
    assert matrix.shape == (len(texts), dimension)
    for row, text in zip(matrix, texts):
        assert row.tolist() == [float(v) for v in oracle_embed(text, dimension)]


def test_embed_matches_oracle_past_slot_cache_capacity():
    capacity = _token_slot.cache_info().maxsize
    tokens = [f"tok{i}" for i in range(capacity + 2048)]
    texts = [" ".join(tokens[i : i + 512]) for i in range(0, len(tokens), 512)]
    embedder = HashingEmbedder()
    for _ in range(2):  # the second pass re-hashes evicted tokens
        matrix = embedder.embed(texts)
        for row, text in zip(matrix, texts):
            assert row.tolist() == [float(v) for v in oracle_embed(text)]
    assert _token_slot.cache_info().currsize <= capacity


@pytest.mark.parametrize(
    "text",
    [
        "\u212aKEY",  # Kelvin sign: lowercases to an ASCII "k"
        "\u0130stanbul \u0130",  # dotted capital I: lowercases to "i" plus a combining dot
        "ab\ud800cd \udfff\udc00x y\ud83d",  # lone surrogates split tokens, never raise
        "nul\x00byte\x01ctl\x7f\x1b[0m tab\tcr\r\nend",
        "٣٤ １２ x² ⑧ 9٠",  # non-ASCII digits
        "ＡＢｃ ｎｍａｐ ＡＢ12",  # full-width letters
        "café naïve ÉCOLE ß ﬁle",
        "",
        " \t\n ",
    ],
)
def test_embed_matches_oracle_on_tokeniser_edge_cases(text):
    for dimension in (1, 7, 256):
        row = HashingEmbedder(dimension).embed([text])[0]
        assert row.tolist() == [float(v) for v in oracle_embed(text, dimension)]


@pytest.mark.parametrize(
    "count",
    [0, 1, EMBED_BLOCK - 1, EMBED_BLOCK, EMBED_BLOCK + 1, 2 * EMBED_BLOCK + 1],
)
def test_embed_matches_oracle_across_block_boundaries(count):
    rng = random.Random(count)
    texts = [_words(rng, rng.randrange(1, 40)) for _ in range(count)]
    # token-free rows between rows with tokens, and a whole token-free block
    texts[1::3] = ["-- !! ..."] * len(texts[1::3])
    if count > 2 * EMBED_BLOCK:
        texts[EMBED_BLOCK : 2 * EMBED_BLOCK] = [""] * EMBED_BLOCK
    matrix = HashingEmbedder().embed(texts)
    assert matrix.shape == (count, 256)
    assert matrix.dtype == np.float64
    for row, text in zip(matrix, texts):
        assert row.tolist() == [float(v) for v in oracle_embed(text)]


def test_embed_of_no_texts_is_empty_float64():
    matrix = HashingEmbedder(7).embed([])
    assert matrix.shape == (0, 7)
    assert matrix.dtype == np.float64


def test_embed_scratch_memory_is_bounded_by_the_block():
    rng = random.Random(5)
    vocabulary = [f"w{i}x" for i in range(5000)] + ["scan", "port", "cve"]
    texts = []
    for _ in range(2000):
        text = ""
        while len(text) < 512:
            text += rng.choice(vocabulary) + rng.choice(" .,/-\n")
        texts.append(text[:512])
    embedder = HashingEmbedder()
    embedder.embed(texts)  # fill the slot cache, which is bounded on its own
    tracemalloc.start()
    try:
        matrix = embedder.embed(texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes + 2 * 1024 * 1024


def test_self_similarity_is_exactly_one():
    embedder = HashingEmbedder()
    texts = ["open port 8161 activemq", "curl http header probe", "x y z " * 40]
    matrix = embedder.embed(texts)
    for row in matrix:
        scores = cosine_scores(matrix, row)
        assert 1.0 in scores.tolist()
    # scalar variant too
    vec = matrix[0].tolist()
    assert cosine_similarity(vec, vec) == 1.0


def test_cosine_symmetry_orthogonality_and_zero():
    a = [1.0, 0.0, 2.0]
    b = [0.0, 3.0, 0.0]
    zero = [0.0, 0.0, 0.0]
    assert cosine_similarity(a, b) == cosine_similarity(b, a) == 0.0
    assert cosine_similarity(a, zero) == 0.0
    assert cosine_similarity(zero, zero) == 0.0
    assert -1.0 <= cosine_similarity([1, 2, 3], [-1, -2, -3]) <= 1.0
    assert cosine_similarity([1, 2], [-1, -2]) == -1.0


def test_cosine_scores_matches_scalar_path():
    rng = random.Random(21)
    matrix = np.array(
        [[rng.randrange(0, 5) for _ in range(16)] for _ in range(30)],
        dtype=np.float64,
    )
    qvec = np.array([rng.randrange(0, 5) for _ in range(16)], dtype=np.float64)
    vector_scores = cosine_scores(matrix, qvec)
    for i in range(30):
        assert vector_scores[i] == cosine_similarity(
            matrix[i].tolist(), qvec.tolist()
        )


# ---------------------------------------------------------------------------
# Store: indexing, retrieval, ranking oracle
# ---------------------------------------------------------------------------


def _words(rng: random.Random, n: int) -> str:
    vocabulary = ["scan", "port", "http", "demo", "app", "cve", "host", "tls",
                  "banner", "ssh", "ftp", "smtp", "nmap", "curl", "probe"]
    return " ".join(rng.choice(vocabulary) for _ in range(n))


def test_index_empty_and_small(tmp_path):
    store = RagStore(tmp_path)
    assert store.index("c1", []) == 0
    assert store.index("c1", [("d1", "x" * 100, "uri")]) == 1
    assert store.index("c1", [("d2", "y" * 1200, "uri2")]) == 3


def test_retrieve_exact_text_is_rank_one(tmp_path):
    store = RagStore(tmp_path)
    docs = [
        ("a", "activemq console on port 8161", "u1"),
        ("b", "postgres database on 5432", "u2"),
        ("c", "ssh daemon openssh", "u3"),
    ]
    store.index("c", docs)
    hits = store.retrieve("c", "activemq console on port 8161", k=3)
    assert hits[0].chunk.doc_id == "a"
    assert hits[0].score == 1.0


def test_retrieve_k_larger_than_corpus(tmp_path):
    store = RagStore(tmp_path)
    store.index("c", [("a", "one", "u"), ("b", "two", "u")])
    assert len(store.retrieve("c", "one", k=50)) == 2


def test_retrieve_validation_and_missing(tmp_path):
    store = RagStore(tmp_path)
    store.index("c", [("a", "text", "u")])
    with pytest.raises(ValueError):
        store.retrieve("c", "q", k=0)
    with pytest.raises(ValueError):
        store.retrieve("c", "", k=1)
    with pytest.raises(CorpusMissing):
        store.retrieve("absent", "q", k=1)


def test_ranking_matches_bruteforce_oracle(tmp_path):
    """Small-scale version of the retrieval acceptance check: exact rank and
    tie-break agreement on randomized corpora."""
    rng = random.Random(0xBEEF)
    for trial in range(20):
        store = RagStore(tmp_path / f"t{trial}")
        n_docs = rng.randrange(1, 12)
        documents = []
        for d in range(n_docs):
            documents.append((f"doc{d:02d}", _words(rng, rng.randrange(1, 30)), "u"))
        store.index("c", documents)
        oracle_chunks = []
        for doc_id, text, _ in documents:
            for idx, piece in enumerate(chunk_text(text)):
                oracle_chunks.append((doc_id, idx, piece))
        for _ in range(5):
            query = _words(rng, rng.randrange(1, 8))
            k = rng.randrange(1, len(oracle_chunks) + 3)
            hits = store.retrieve("c", query, k=k)
            expected = oracle_rank(oracle_chunks, query)[: min(k, len(oracle_chunks))]
            got = [(h.chunk.doc_id, h.chunk.chunk_index) for h in hits]
            assert got == expected, f"trial {trial} query {query!r}"
            # scores must be the oracle's too, bit for bit
            for hit in hits:
                text = next(
                    t for d, i, t in oracle_chunks
                    if (d, i) == (hit.chunk.doc_id, hit.chunk.chunk_index)
                )
                assert hit.score == oracle_cosine(
                    oracle_embed(text), oracle_embed(query)
                )


def test_tie_break_order_is_doc_then_chunk(tmp_path):
    store = RagStore(tmp_path)
    # identical texts tie at score 1.0; order must be doc_id, chunk_index
    store.index(
        "c",
        [("zz", "same text", "u"), ("aa", "same text", "u"), ("mm", "same text", "u")],
    )
    hits = store.retrieve("c", "same text", k=3)
    assert [h.chunk.doc_id for h in hits] == ["aa", "mm", "zz"]


@settings(max_examples=60, deadline=None)
@given(
    documents=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "ab", "ba"]),
            st.sampled_from(["scan", "port", "scan port", "port scan", "tls", ""]),
        ),
        min_size=1,
        max_size=25,
    ),
    query=st.sampled_from(["scan", "port", "scan port", "tls", "ftp"]),
    k=st.integers(min_value=1, max_value=30),
)
def test_ranking_with_many_exact_ties_matches_oracle(tmp_path_factory, documents, query, k):
    # a four-word vocabulary and repeated doc ids make most scores exact ties
    store = RagStore(tmp_path_factory.mktemp("ties"))
    store.index("c", [(doc_id, text, "u") for doc_id, text in documents])
    oracle_chunks = [
        (doc_id, idx, piece)
        for doc_id, text in documents
        for idx, piece in enumerate(chunk_text(text))
    ]
    hits = store.retrieve("c", query, k=k)
    got = [(h.chunk.doc_id, h.chunk.chunk_index) for h in hits]
    assert got == oracle_rank(oracle_chunks, query)[:k]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_reload_gives_identical_hits(tmp_path):
    rng = random.Random(3)
    store = RagStore(tmp_path)
    documents = [
        (f"d{i}", _words(rng, rng.randrange(5, 40)), f"u{i}") for i in range(8)
    ]
    store.index("c", documents)
    query = "nmap port scan"
    before = store.retrieve("c", query, k=6)

    reopened = RagStore(tmp_path)
    after = reopened.retrieve("c", query, k=6)
    assert [(h.chunk.doc_id, h.chunk.chunk_index, h.score) for h in before] == [
        (h.chunk.doc_id, h.chunk.chunk_index, h.score) for h in after
    ]
    assert [h.chunk.text for h in before] == [h.chunk.text for h in after]


def test_save_load_save_byte_identity(tmp_path):
    rng = random.Random(11)
    for trial in range(10):
        root = tmp_path / f"r{trial}"
        store = RagStore(root)
        documents = [
            (f"d{i}", _words(rng, rng.randrange(1, 60)), f"uri://{i}")
            for i in range(rng.randrange(1, 10))
        ]
        store.index("c", documents)
        manifest_before = (root / "c" / "manifest.json").read_bytes()
        chunks_before = (root / "c" / "chunks.jsonl").read_bytes()

        reopened = RagStore(root)
        reopened.persist("c")
        assert (root / "c" / "manifest.json").read_bytes() == manifest_before
        assert (root / "c" / "chunks.jsonl").read_bytes() == chunks_before


def test_appending_index_calls_equal_one_full_rewrite(tmp_path):
    rng = random.Random(29)
    documents = [
        (f"d{i:02d}", _words(rng, rng.randrange(1, 200)), f"uri://{i}") for i in range(50)
    ]
    store = RagStore(tmp_path / "appended")
    for document in documents:
        store.index("c", [document])
    appended = tmp_path / "appended" / "c"
    manifest = (appended / "manifest.json").read_bytes()
    chunks = (appended / "chunks.jsonl").read_bytes()
    assert json.loads(manifest)["chunk_count"] == len(chunks.splitlines())

    RagStore(tmp_path / "appended").persist("c")
    assert (appended / "manifest.json").read_bytes() == manifest
    assert (appended / "chunks.jsonl").read_bytes() == chunks
    RagStore(tmp_path / "single").index("c", documents)
    assert (tmp_path / "single" / "c" / "manifest.json").read_bytes() == manifest
    assert (tmp_path / "single" / "c" / "chunks.jsonl").read_bytes() == chunks

    reopened = RagStore(tmp_path / "appended")
    for query in ("nmap port scan", "tls banner", "cve host probe"):
        before = store.retrieve("c", query, k=10)
        after = reopened.retrieve("c", query, k=10)
        assert [(h.chunk, h.score) for h in before] == [(h.chunk, h.score) for h in after]


def test_crash_before_manifest_rewrite_is_detected(tmp_path):
    store = RagStore(tmp_path)
    store.index("c", [("a", "first document", "u")])
    old_manifest = (tmp_path / "c" / "manifest.json").read_bytes()
    store.index("c", [("b", "second document", "u")])
    # as if the process died after appending chunk lines, before the manifest
    (tmp_path / "c" / "manifest.json").write_bytes(old_manifest)
    with pytest.raises(CorpusCorrupt):
        RagStore(tmp_path).retrieve("c", "document", k=1)


def test_drop_removes_corpus_and_cache(tmp_path):
    store = RagStore(tmp_path)
    store.index("c", [("old", "stale words", "u")])
    store.drop("c")
    assert not store.corpus_exists("c")
    with pytest.raises(CorpusMissing):
        store.retrieve("c", "stale", k=1)
    store.index("c", [("new", "fresh words", "u")])
    assert [h.chunk.doc_id for h in store.retrieve("c", "stale fresh", k=5)] == ["new"]
    store.drop("absent")  # dropping a missing corpus is a no-op


# ---------------------------------------------------------------------------
# Memory-only corpora
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    documents=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "ab", "zz"]),
            st.lists(
                st.sampled_from(["scan", "port", "tls", "cve", "héllo", "x" * 40, "\n"]),
                max_size=40,
            ).map(" ".join),
        ),
        min_size=1,
        max_size=12,
    ),
    split=st.integers(min_value=0, max_value=12),
    query=st.sampled_from(["scan", "port tls", "cve héllo", "ftp"]),
    k=st.integers(min_value=1, max_value=20),
)
def test_memory_corpus_retrieves_like_disk_corpus_reloaded(
    tmp_path_factory, documents, split, query, k
):
    docs = [(doc_id, text, f"uri://{doc_id}") for doc_id, text in documents]
    root = tmp_path_factory.mktemp("memory")
    memory = RagStore(root)
    # two index calls, so the oracle also covers appends to a memory corpus
    memory.index("c", docs[:split], chunk_size=64, overlap=8, in_memory=True)
    memory.index("c", docs[split:], chunk_size=64, overlap=8, in_memory=True)
    assert list(root.iterdir()) == []

    disk_root = tmp_path_factory.mktemp("disk")
    RagStore(disk_root).index("c", docs, chunk_size=64, overlap=8)
    reloaded = RagStore(disk_root)
    assert [(h.chunk, h.score) for h in memory.retrieve("c", query, k=k)] == [
        (h.chunk, h.score) for h in reloaded.retrieve("c", query, k=k)
    ]


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("index"),
                st.lists(
                    st.tuples(
                        st.sampled_from(["a", "b", "zz"]),
                        st.lists(
                            st.sampled_from(["scan", "port", "tls", "cve", "x" * 40]),
                            max_size=30,
                        ).map(" ".join),
                    ),
                    max_size=4,
                ),
            ),
            st.tuples(
                st.just("retrieve"),
                st.sampled_from(["scan", "port tls", "cve cve scan", "ftp"]),
            ),
        ),
        min_size=1,
        max_size=12,
    ),
    k=st.integers(min_value=1, max_value=20),
)
def test_interleaved_index_and_retrieve_match_oracle(tmp_path_factory, steps, k):
    # cached per-corpus state (tie ranks, row norms) must follow every append
    store = RagStore(tmp_path_factory.mktemp("interleaved"))
    oracle_chunks = []
    for op, arg in steps:
        if op == "index":
            store.index(
                "c",
                [(doc_id, text, "u") for doc_id, text in arg],
                chunk_size=64,
                overlap=8,
                in_memory=True,
            )
            for doc_id, text in arg:
                for idx, piece in enumerate(chunk_text(text, 64, 8)):
                    oracle_chunks.append((doc_id, idx, piece))
        elif store.corpus_exists("c"):
            hits = store.retrieve("c", arg, k=k)
            got = [(h.chunk.doc_id, h.chunk.chunk_index) for h in hits]
            assert got == oracle_rank(oracle_chunks, arg)[:k]
            for hit in hits:
                assert hit.score == oracle_cosine(
                    oracle_embed(hit.chunk.text), oracle_embed(arg)
                )


def test_memory_corpus_is_seen_only_by_its_store(tmp_path):
    store = RagStore(tmp_path)
    assert store.index("c", [("a", "port scan", "u")], in_memory=True) == 1
    assert store.corpus_exists("c")
    assert [h.chunk.doc_id for h in store.retrieve("c", "scan", k=1)] == ["a"]
    assert list(tmp_path.iterdir()) == []
    fresh = RagStore(tmp_path)
    assert not fresh.corpus_exists("c")
    with pytest.raises(CorpusMissing):
        fresh.retrieve("c", "scan", k=1)
    store.drop("c")
    assert not store.corpus_exists("c")


def test_corpus_placement_is_fixed_by_its_first_index(tmp_path):
    store = RagStore(tmp_path)
    store.index("mem", [("a", "port scan", "u")], in_memory=True)
    store.index("disk", [("a", "port scan", "u")])
    with pytest.raises(ValueError, match="in memory only"):
        store.index("mem", [("b", "tls", "u")])
    with pytest.raises(ValueError, match="in memory only"):
        store.persist("mem")
    with pytest.raises(ValueError, match="on disk"):
        store.index("disk", [("b", "tls", "u")], in_memory=True)
    # a store that has not cached the disk corpus yet refuses it too
    with pytest.raises(ValueError, match="on disk"):
        RagStore(tmp_path).index("disk", [("b", "tls", "u")], in_memory=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["disk"]
    assert [h.chunk.doc_id for h in store.retrieve("mem", "tls scan", k=5)] == ["a"]


def test_embedder_mismatch_detected(tmp_path):
    store = RagStore(tmp_path, embedder=HashingEmbedder(dimension=64))
    store.index("c", [("d", "text", "u")])
    other = RagStore(tmp_path, embedder=HashingEmbedder(dimension=128))
    with pytest.raises(EmbedderMismatch):
        other.retrieve("c", "text", k=1)


def test_corrupt_manifest_detected(tmp_path):
    store = RagStore(tmp_path)
    store.index("c", [("d", "text", "u")])
    (tmp_path / "c" / "manifest.json").write_text('{"magic": "wrong"}')
    with pytest.raises(CorpusCorrupt):
        RagStore(tmp_path).retrieve("c", "text", k=1)


def test_bad_corpus_ids_rejected(tmp_path):
    store = RagStore(tmp_path)
    for bad in ("", "a/b", ".hidden"):
        with pytest.raises(ValueError):
            store.index(bad, [])


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

register_schema(ResponseSchema("ragtest_answer", ("answer",)), replace=True)


def test_synthesize_prepends_context(tmp_path):
    store = RagStore(tmp_path)
    store.index(
        "c",
        [("adv", "ActiveMQ 5.17.3 is vulnerable to remote code execution", "u1")],
    )
    seen = []

    from pentestflow.gateway import ChatSession, ScriptedBackend

    def responder(request):
        seen.append(request.prompt)
        return '{"answer": "relevant"}'

    from conftest import WIDE_PROFILE

    session = ChatSession("s", "sys", WIDE_PROFILE, ScriptedBackend(responder=responder))
    response = store.synthesize("c", "Is this relevant?", 3, session, "ragtest_answer")
    assert response.valid
    assert not response.context_empty
    assert len(seen) == 1
    assert seen[0].endswith("Is this relevant?")
    assert "[source: u1" in seen[0]
    assert "ActiveMQ 5.17.3" in seen[0]


def test_synthesize_k_zero_flags_empty_context(tmp_path):
    store = RagStore(tmp_path)
    store.index("c", [("d", "text here", "u")])
    session = scripted_session(['{"answer": 1}'])
    response = store.synthesize("c", "question?", 0, session, "ragtest_answer")
    assert response.valid
    assert response.context_empty


def test_synthesize_budget_drops_low_scoring_chunks(tmp_path):
    from pentestflow.gateway import ChatSession, ProviderProfile, ScriptedBackend

    store = RagStore(tmp_path)
    store.index(
        "c",
        [
            ("best", "query words exactly match this", "u1"),
            ("worst", "completely unrelated filler padding " * 30, "u2"),
        ],
    )
    seen = []

    def responder(request):
        seen.append(request.prompt)
        return '{"answer": 1}'

    # context budget = 1100 - 1024 reserve - system/prompt tokens ≈ 67:
    # fits the short top chunk (~24 tokens with header) but not a 512-char
    # chunk of the filler document (~144)
    profile = ProviderProfile("tight", "m", 1100, 0, 0)
    session = ChatSession("s", "sys", profile, ScriptedBackend(responder=responder))
    response = store.synthesize(
        "c", "query words exactly match this", 5, session, "ragtest_answer"
    )
    assert response.valid
    assert not response.context_empty
    assert "doc=best" in seen[0]
    assert "doc=worst" not in seen[0]
