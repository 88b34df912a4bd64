"""Retrieval store tests.

The ranking oracle here is an independent pure-Python implementation of the
hashing embedder and cosine ranking; the store must agree with it exactly,
including tie-break order, because both paths do the same exact float64
arithmetic on integer-valued vectors.
"""

import hashlib
import math
import random
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentestflow.gateway import (
    RESPONSE_RESERVE_TOKENS,
    ChatSession,
    ProviderProfile,
    ResponseSchema,
    ScriptedBackend,
    estimate_tokens,
    register_schema,
)
from pentestflow.rag import (
    CHUNK_OVERLAP,
    CHUNK_SIZE,
    CorpusMissing,
    EMBED_BLOCK,
    HashingEmbedder,
    RagStore,
    chunk_text,
    _token_slot,
    cosine_scores,
    passages,
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


def oracle_cosine(a: list[float], b: list[float]) -> float:
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
    # the scalar oracle too
    vec = matrix[0].tolist()
    assert oracle_cosine(vec, vec) == 1.0


def test_cosine_symmetry_orthogonality_and_zero():
    def cosine(x, y):
        matrix = np.array([x], dtype=np.float64)
        return float(cosine_scores(matrix, np.array(y, dtype=np.float64))[0])

    a = [1.0, 0.0, 2.0]
    b = [0.0, 3.0, 0.0]
    zero = [0.0, 0.0, 0.0]
    assert cosine(a, b) == cosine(b, a) == 0.0
    assert cosine(a, zero) == 0.0
    assert cosine(zero, zero) == 0.0
    assert -1.0 <= cosine([1, 2, 3], [-1, -2, -3]) <= 1.0
    assert cosine([1, 2], [-1, -2]) == -1.0


def test_cosine_scores_matches_scalar_path():
    rng = random.Random(21)
    matrix = np.array(
        [[rng.randrange(0, 5) for _ in range(16)] for _ in range(30)],
        dtype=np.float64,
    )
    qvec = np.array([rng.randrange(0, 5) for _ in range(16)], dtype=np.float64)
    vector_scores = cosine_scores(matrix, qvec)
    for i in range(30):
        assert vector_scores[i] == oracle_cosine(matrix[i].tolist(), qvec.tolist())


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


PIECE = 16  # chunk size with no overlap: a text of pieces this wide chunks into them


@st.composite
def two_call_corpora(draw):
    """Documents for two index calls over 40-150 chunks of 0-3 words from a
    four-word vocabulary; doc "a" opens both calls."""
    words = st.lists(st.sampled_from(["scan", "port", "tls", "ftp"]), max_size=3)
    pieces = draw(st.lists(words.map(" ".join), min_size=40, max_size=150))
    cut = draw(st.integers(min_value=1, max_value=len(pieces) - 1))
    calls = []
    for part in (pieces[:cut], pieces[cut:]):
        documents = []
        while part:
            size = draw(st.integers(min_value=1, max_value=12))
            doc_id = draw(st.sampled_from(["a", "b", "ab", "zz"])) if documents else "a"
            text = "".join(piece.ljust(PIECE) for piece in part[:size])
            documents.append((doc_id, text, "u"))
            part = part[size:]
        calls.append(documents)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    calls=two_call_corpora(),
    query=st.sampled_from(["scan", "port tls", "ftp ftp scan", "cve"]),
    k=st.integers(min_value=1, max_value=160),
)
def test_ranking_across_embed_blocks_matches_oracle(tmp_path_factory, calls, query, k):
    # several blocks per corpus, exact ties and zero scores everywhere, and
    # one doc id in two index calls, so equal keys tie on indexing order
    store = RagStore(tmp_path_factory.mktemp("blocks"))
    oracle_chunks = []
    for documents in calls:
        store.index("c", documents, chunk_size=PIECE, overlap=0)
        for doc_id, text, _ in documents:
            for idx, piece in enumerate(chunk_text(text, PIECE, 0)):
                oracle_chunks.append((doc_id, idx, piece))
    assert 40 <= len(oracle_chunks) <= 150
    hits = store.retrieve("c", query, k=k)
    assert [(h.chunk.doc_id, h.chunk.chunk_index) for h in hits] == (
        oracle_rank(oracle_chunks, query)[:k]
    )
    qvec = oracle_embed(query)
    scores = sorted(
        (oracle_cosine(oracle_embed(text), qvec) for _, _, text in oracle_chunks),
        reverse=True,
    )
    assert [h.score for h in hits] == scores[:k]
    for hit in hits:
        assert hit.score == oracle_cosine(oracle_embed(hit.chunk.text), qvec)


def _short_texts(count: int, seed: int) -> list[tuple[str, str, str]]:
    rng = random.Random(seed)
    vocabulary = [f"w{i}x" for i in range(2000)] + ["scan", "port", "cve"]
    return [
        (f"doc{i:05d}", " ".join(rng.choices(vocabulary, k=12)), f"u{i % 7}")
        for i in range(count)
    ]


def test_index_keeps_only_the_chunks():
    rng = random.Random(11)
    # 512 + 19 * 448 characters: 20 chunks of default size per document
    documents = [
        (f"doc{i:03d}", _words(rng, 2000)[:9024], f"u{i}") for i in range(100)
    ]
    text_bytes = sum(
        len(piece) for _, text, _ in documents for piece in chunk_text(text)
    )
    store = RagStore("unused")
    store.index("warm", documents[:1])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert store.index("c", documents) == 2000
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a float64 vector per chunk would be 2,048 B on its own
    assert after - before <= text_bytes + 256 * 2000


def test_retrieve_memory_is_bounded_by_the_block():
    store = RagStore("unused")
    store.index("c", _short_texts(20_000, 12))
    store.retrieve("c", "scan port w7x", k=5)  # fill the slot cache
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        hits = store.retrieve("c", "scan port w7x", k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hits) == 5
    assert peak - before < 1024 * 1024


# ---------------------------------------------------------------------------
# Corpus lifecycle: every corpus lives in its store's memory
# ---------------------------------------------------------------------------


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
def test_memory_corpus_retrieves_like_one_index_and_oracle(
    tmp_path_factory, documents, split, query, k
):
    docs = [(doc_id, text, f"uri://{doc_id}") for doc_id, text in documents]
    root = tmp_path_factory.mktemp("memory")
    memory = RagStore(root / "rag")
    # two index calls, so the oracle also covers appends to a corpus
    memory.index("c", docs[:split], chunk_size=64, overlap=8)
    memory.index("c", docs[split:], chunk_size=64, overlap=8)
    assert list(root.iterdir()) == []  # the store never creates its root

    single = RagStore(root / "single")
    single.index("c", docs, chunk_size=64, overlap=8)
    hits = memory.retrieve("c", query, k=k)
    assert [(h.chunk, h.score) for h in hits] == [
        (h.chunk, h.score) for h in single.retrieve("c", query, k=k)
    ]
    oracle_chunks = [
        (doc_id, idx, piece)
        for doc_id, text, _ in docs
        for idx, piece in enumerate(chunk_text(text, 64, 8))
    ]
    assert [(h.chunk.doc_id, h.chunk.chunk_index) for h in hits] == (
        oracle_rank(oracle_chunks, query)[:k]
    )


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
    assert store.index("c", [("a", "port scan", "u")]) == 1
    assert store.corpus_exists("c")
    assert [h.chunk.doc_id for h in store.retrieve("c", "scan", k=1)] == ["a"]
    assert list(tmp_path.iterdir()) == []
    fresh = RagStore(tmp_path)
    assert not fresh.corpus_exists("c")
    with pytest.raises(CorpusMissing):
        fresh.retrieve("c", "scan", k=1)
    store.drop("c")
    assert not store.corpus_exists("c")


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


# ---------------------------------------------------------------------------
# What reaches the prompt: the budget prefix of the ranking, as document slices
# ---------------------------------------------------------------------------

SYSTEM = "sys"
PASSAGE_WORDS = ["scan", "port", "admin", "shell", "root", "token", "web", "x1"]
# (chunk_size, overlap): no overlap, small, large, the largest allowed, default
CHUNKINGS = [(8, 0), (12, 3), (20, 5), (16, 15), (CHUNK_SIZE, CHUNK_OVERLAP)]


def budget_session(budget, query, prompts_seen):
    """A session whose prompt_budget(query) is exactly budget."""
    window = (
        budget
        + RESPONSE_RESERVE_TOKENS
        + estimate_tokens(SYSTEM)
        + estimate_tokens(query)
    )

    def responder(request):
        prompts_seen.append(request.prompt)
        return '{"answer": 1}'

    profile = ProviderProfile("budget", "m", window, 0, 0)
    session = ChatSession("s", SYSTEM, profile, ScriptedBackend(responder=responder))
    assert session.prompt_budget(query) == budget
    return session


def oracle_corpus(calls):
    """Per position: (doc_id, chunk_index, text, source, document, step, cut),
    where cut numbers the document within the corpus."""
    corpus = []
    for cut_base, ((size, overlap), documents) in enumerate(calls):
        for d, (doc_id, text, source) in enumerate(documents):
            for idx, piece in enumerate(chunk_text(text, size, overlap)):
                corpus.append((doc_id, idx, piece, source, text, size - overlap, (cut_base, d)))
    return corpus


def oracle_kept(corpus, query, k, budget):
    """The parent's selection: the top-k ranking (ties by doc id, chunk index,
    then indexing order), cut where the next chunk would blow the budget."""
    qvec = oracle_embed(query)
    ranking = sorted(
        (-oracle_cosine(oracle_embed(c[2]), qvec), c[0], c[1], position)
        for position, c in enumerate(corpus)
    )
    kept, used = [], 0
    for *_, position in ranking[:k]:
        used += estimate_tokens(corpus[position][2]) + 16
        if used > budget:
            break
        kept.append(position)
    return kept


def oracle_prompt(corpus, kept, query):
    """The prompt rendered from the oracle: runs of kept chunks cut one after
    another from one document, each sent as the document slice it spans."""
    runs = []
    for position in sorted(kept):
        previous = runs[-1][-1] if runs else None
        if previous == position - 1 and corpus[previous][6] == corpus[position][6]:
            runs[-1].append(position)
        else:
            runs.append([position])
    if not runs:
        return query
    blocks = []
    for run in runs:
        doc_id, first, _, source, text, step, _ = corpus[run[0]]
        last, last_text = corpus[run[-1]][1], corpus[run[-1]][2]
        doc = "" if doc_id == source else f" doc={doc_id}"
        span = f"chunk={first}" if first == last else f"chunks={first}-{last}"
        blocks.append(
            f"[source: {source}{doc} {span}]\n"
            + text[first * step : last * step + len(last_text)]
        )
    return (
        "Context passages (cite sources where relevant):\n\n"
        + "\n---\n".join(blocks)
        + "\n\n"
        + query
    )


_passage_text = st.lists(st.sampled_from(PASSAGE_WORDS), max_size=40).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(CHUNKINGS),
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b", "u"]), _passage_text, st.sampled_from(["u", "v"])
                ),
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=4,
    ),
    query=st.lists(st.sampled_from(PASSAGE_WORDS), min_size=1, max_size=4).map(" ".join),
    k=st.integers(1, 12),
    budget=st.integers(0, 200),
)
def test_prompt_carries_the_budget_prefix_as_document_slices(calls, query, k, budget):
    # doc ids repeat within and across index calls, chunkings differ per call
    store = RagStore("unused")
    for (size, overlap), documents in calls:
        store.index("c", documents, chunk_size=size, overlap=overlap)
    corpus = oracle_corpus(calls)
    kept = oracle_kept(corpus, query, k, budget)

    selected = store.select("c", query, k, budget)
    assert sorted(chunk.position for chunk in selected) == sorted(kept)
    merged = passages(selected)
    in_passages = [chunk.position for passage in merged for chunk in passage.chunks]
    assert sorted(in_passages) == sorted(kept)  # each kept chunk exactly once
    for passage in merged:
        first, last = passage.chunks[0], passage.chunks[-1]
        _, _, _, _, text, step, cut = corpus[first.position]
        assert {corpus[chunk.position][6] for chunk in passage.chunks} == {cut}
        start, end = first.chunk_index * step, last.chunk_index * step + len(last.text)
        assert passage.text == text[start:end]

    seen = []
    session = budget_session(budget, query, seen)
    response = store.synthesize("c", query, k, session, "ragtest_answer")
    assert seen == [oracle_prompt(corpus, kept, query)]
    assert response.context_empty == (not kept)


def test_passages_merge_only_chunks_cut_one_after_another():
    store = RagStore("unused")
    text = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(2):  # one doc id, indexed twice: two documents
        assert store.index("c", [("a", text, "u")], 12, 4) == 3
    chunks = store.select("c", "q", 6, 10**6)
    assert [c.position for c in chunks] == list(range(6))

    def spans(positions):
        return [
            ([c.position for c in p.chunks], p.header, p.text)
            for p in passages(chunks[i] for i in positions)
        ]

    assert spans([5, 3, 0, 4, 1, 2]) == [
        ([0, 1, 2], "[source: u doc=a chunks=0-2]", text),
        ([3, 4, 5], "[source: u doc=a chunks=0-2]", text),
    ]
    # chunk indexes 0 then 1, but of two documents; 2 then 0 sit side by side
    assert spans([0, 4]) == [
        ([0], "[source: u doc=a chunk=0]", text[:12]),
        ([4], "[source: u doc=a chunk=1]", text[8:20]),
    ]
    assert [p for p, _, _ in spans([2, 3])] == [[2], [3]]


def test_a_small_corpus_that_fits_is_sent_whole_unranked(monkeypatch):
    store = RagStore("unused")
    text = "alpha bravo charlie delta echo foxtrot golf hotel india juliet"
    assert store.index("c", [("https://adv.org/1", text, "https://adv.org/1")], 30, 6) == 3
    store.index("c", [("notes", "kilo lima", "env://notes")])
    whole = sum(estimate_tokens(c) + 16 for c in [*chunk_text(text, 30, 6), "kilo lima"])

    def refuse(texts):
        raise AssertionError("a corpus that fits whole is not embedded")

    monkeypatch.setattr(store.embedder, "embed", refuse)
    seen = []
    session = budget_session(whole, "which words?", seen)
    response = store.synthesize("c", "which words?", 4, session, "ragtest_answer")
    assert response.valid and not response.context_empty
    assert seen == [
        "Context passages (cite sources where relevant):\n\n"
        f"[source: https://adv.org/1 chunks=0-2]\n{text}\n---\n"
        "[source: env://notes doc=notes chunk=0]\nkilo lima\n\nwhich words?"
    ]
    # one chunk more than k, or a budget one token short, and it is ranked
    for k, budget in ((3, whole), (4, whole - 1)):
        session = budget_session(budget, "which words?", [])
        with pytest.raises(AssertionError, match="not embedded"):
            store.synthesize("c", "which words?", k, session, "ragtest_answer")


# ---------------------------------------------------------------------------
# Synthesis is stateless: passages travel with the prompt, history stays home
# ---------------------------------------------------------------------------

register_schema(ResponseSchema("ragtest_chat", ("ok",)), replace=True)

ENV_DOCS = [
    ("fp", "admin console on port 8161, product DemoSrv 1.2.3", "env://fp"),
    ("svc", "ssh on port 22; http on port 80 with basic auth user admin", "env://svc"),
]


def _rendered(store, corpus_id, analysis_prompt, k):
    """The synthesize prompt rendered independently from the ranking's
    chunks, in indexing order; each ENV_DOCS document is one chunk, so none
    merge, and each doc id differs from its source."""
    hits = sorted(store.retrieve(corpus_id, analysis_prompt, k), key=lambda h: h.chunk.position)
    blocks = [
        f"[source: {h.chunk.source_uri} doc={h.chunk.doc_id} "
        f"chunk={h.chunk.chunk_index}]\n{h.chunk.text}"
        for h in hits
    ]
    return (
        "Context passages (cite sources where relevant):\n\n"
        + "\n---\n".join(blocks)
        + "\n\n"
        + analysis_prompt
    )


def test_synthesize_sends_no_history_and_keeps_prep_prompts(tmp_path):
    from pentestflow import prompts
    from pentestflow.gateway import ChatSession, ScriptedBackend

    from conftest import WIDE_PROFILE

    store = RagStore(tmp_path)
    store.index("env", ENV_DOCS)
    requests = []

    def responder(request):
        requests.append(request)
        if "parameter" in request.prompt:
            return '{"name": "x", "value": "", "found": false}'
        return '{"ok": true}'

    session = ChatSession("prep", "sys", WIDE_PROFILE, ScriptedBackend(responder=responder))
    session.complete_structured("a conversational turn", "ragtest_chat")
    history = session.history
    before = list(history)
    asked = [
        prompts.PREP_FILL_TEMPLATE.format(name=name, description=f"the {name}")
        for name in ("admin_port", "username", "rhost", "lport", "api_key")
    ]
    for analysis_prompt in asked:
        response = store.synthesize("env", analysis_prompt, 3, session, "param_fill")
        assert response.valid
    fills = requests[1:]
    assert [r.history for r in fills] == [()] * len(asked)
    assert [r.prompt for r in fills] == [_rendered(store, "env", p, 3) for p in asked]
    assert session.history is history and history == before
    assert session.ledger.call_count == len(requests)


def test_recorded_synthesis_replays_without_digest_mismatch(tmp_path, caplog):
    from pentestflow.gateway import ChatSession, RecordingBackend, ReplayBackend, ScriptedBackend

    from conftest import WIDE_PROFILE

    store = RagStore(tmp_path)
    store.index("env", ENV_DOCS)

    def converse(backend):
        session = ChatSession("mixed", "sys", WIDE_PROFILE, backend)
        session.complete_structured("first conversational turn", "ragtest_chat")
        store.synthesize("env", "which port serves the admin console?", 2, session, "ragtest_chat")
        session.complete_structured("second conversational turn", "ragtest_chat")
        store.synthesize("env", "which user has basic auth?", 2, session, "ragtest_chat")
        return session

    recorder = RecordingBackend(
        ScriptedBackend(responses=["not json", '{"ok": 1}', '{"ok": 2}', '{"ok": 3}', '{"ok": 4}'])
    )
    recorded = converse(recorder)
    with caplog.at_level("WARNING", logger="pentestflow.gateway"):
        replayed = converse(ReplayBackend(entries=recorder.entries))
    assert not [r for r in caplog.records if "mismatch" in r.getMessage()]
    assert replayed.history == recorded.history
    assert replayed.ledger.to_dict() == recorded.ledger.to_dict()
