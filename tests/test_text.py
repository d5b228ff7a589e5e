"""Text stack: tokenizer, vocabulary, positions, word2vec, corpus."""

import numpy as np

from repro.text import (
    SkipGramWord2Vec,
    Vocabulary,
    build_corpus,
    learned_position_table,
    lex,
    normalize_query,
    tokenize,
)
from repro.text.vocab import PAD_TOKEN, UNK_TOKEN


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize("The Red Dog") == ["the", "red", "dog"]

    def test_strips_punctuation(self):
        assert tokenize("dog, on the left!") == ["dog", "on", "the", "left"]

    def test_keeps_digits(self):
        assert tokenize("2 dogs") == ["2", "dogs"]

    def test_empty(self):
        assert tokenize("  ...  ") == []

    def test_possessive_regression(self):
        # The clitic used to survive as a stray "s" token.
        assert tokenize("the man's hat") == ["the", "man", "hat"]
        assert tokenize("the man’s hat") == ["the", "man", "hat"]

    def test_byte_identical_without_possessives(self):
        # The possessive fix must not perturb any other input.
        cases = [
            "The Red Dog", "dog, on the left!", "2 dogs", "  ...  ",
            "the second car on my right", "all the blue balls",
            "left-most dog", "he is wearing a hat", "cats claws",
        ]
        for text in cases:
            import re

            legacy = re.findall(r"[a-z0-9]+", text.lower())
            assert tokenize(text) == legacy

    def test_unicode_accents_split(self):
        # Non-ASCII letters are not in the token alphabet; they split
        # words the same way legacy tokenize always did.
        assert tokenize("café dog") == ["caf", "dog"]

    def test_hyphenation(self):
        assert tokenize("left-most dog") == ["left", "most", "dog"]
        assert lex("left-most dog") == ["left-most", "dog"]

    def test_punctuation_only(self):
        assert tokenize("?!.,;") == []
        assert lex("?!.,;") == ["?", "!", ".", ",", ";"]


class TestLexer:
    def test_preserves_punctuation_and_boundaries(self):
        assert lex("A man. The hat!") == ["a", "man", ".", "the", "hat", "!"]

    def test_clitic_is_a_lexeme(self):
        assert lex("the man's hat") == ["the", "man", "'s", "hat"]

    def test_empty(self):
        assert lex("") == []

    def test_lossy_tokens_recoverable(self):
        # Dropping punctuation/clitics from lex() gives tokenize().
        for text in ["The man's hat.", "dog, left!", "a b . c"]:
            words = [w for w in lex(text)
                     if w[0].isalnum()]
            flat = []
            for word in words:
                flat.extend(tokenize(word))
            assert flat == tokenize(text)


class TestNormalizeQuery:
    def test_whitespace_and_case(self):
        assert normalize_query(" The red car. ") == "the red car"
        assert normalize_query("the red car") == "the red car"

    def test_idempotent(self):
        for query in [" The red car. ", "ALL the Blue balls",
                      "there is a dog .  the cat next to it"]:
            once = normalize_query(query)
            assert normalize_query(once) == once

    def test_preserves_token_sequence(self):
        for query in [" The red car. ", "the man's hat",
                      "there is a dog . the cat next to it!",
                      "left-most dog", ""]:
            assert tokenize(normalize_query(query)) == tokenize(query)

    def test_internal_sentence_breaks_survive(self):
        # Sentence structure is meaningful to the parser; only trailing
        # punctuation is dropped.
        normalized = normalize_query("There is a dog. The cat next to it.")
        assert normalized == "there is a dog . the cat next to it"


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary()
        assert vocab.pad_id == 0 and vocab.unk_id == 1
        assert vocab.id_to_token(0) == PAD_TOKEN
        assert vocab.id_to_token(1) == UNK_TOKEN

    def test_add_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("dog")
        assert vocab.add("dog") == first
        assert len(vocab) == 3

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["dog"])
        assert vocab.token_to_id("zebra") == vocab.unk_id

    def test_from_corpus_deterministic(self):
        corpus = [["b", "a"], ["c", "a"]]
        v1 = Vocabulary.from_corpus(corpus)
        v2 = Vocabulary.from_corpus(corpus)
        assert [v1.id_to_token(i) for i in range(len(v1))] == [
            v2.id_to_token(i) for i in range(len(v2))
        ]

    def test_encode_pads_and_masks(self):
        vocab = Vocabulary(["red", "dog"])
        ids, mask = vocab.encode("red dog", max_length=4)
        assert ids.tolist()[2:] == [0, 0]
        assert mask.tolist() == [1, 1, 0, 0]

    def test_encode_truncates(self):
        vocab = Vocabulary(["a", "b", "c"])
        ids, mask = vocab.encode(["a", "b", "c"], max_length=2)
        assert mask.sum() == 2

    def test_encode_accepts_token_list(self):
        vocab = Vocabulary(["dog"])
        ids, _ = vocab.encode(["dog"], max_length=2)
        assert ids[0] == vocab.token_to_id("dog")

    def test_decode_drops_padding(self):
        vocab = Vocabulary(["dog"])
        ids, _ = vocab.encode("dog", max_length=3)
        assert vocab.decode(ids) == ["dog"]

    def test_contains(self):
        vocab = Vocabulary(["dog"])
        assert "dog" in vocab and "cat" not in vocab


class TestPositions:
    def test_learned_shape(self):
        assert learned_position_table(5, 6).shape == (5, 6)


class TestWord2Vec:
    def _corpus(self):
        return [
            ["red", "dog"], ["blue", "dog"], ["red", "car"], ["blue", "car"],
            ["red", "ball"], ["blue", "ball"], ["green", "dog"], ["green", "car"],
        ] * 10

    def test_training_reduces_loss(self):
        corpus = self._corpus()
        vocab = Vocabulary.from_corpus(corpus)
        model = SkipGramWord2Vec(vocab, dim=8)
        first = model.train(corpus, epochs=1)
        later = model.train(corpus, epochs=3)
        assert later < first

    def test_pad_row_stays_zero(self):
        corpus = self._corpus()
        vocab = Vocabulary.from_corpus(corpus)
        model = SkipGramWord2Vec(vocab, dim=8)
        model.train(corpus, epochs=1)
        assert np.allclose(model.embedding_matrix()[vocab.pad_id], 0.0)

    def test_colors_cluster(self):
        corpus = self._corpus()
        vocab = Vocabulary.from_corpus(corpus)
        model = SkipGramWord2Vec(vocab, dim=8)
        model.train(corpus, epochs=8)
        neighbours = model.most_similar("red", top_k=2)
        assert "blue" in neighbours or "green" in neighbours

    def test_embedding_matrix_shape(self):
        vocab = Vocabulary(["a", "b"])
        model = SkipGramWord2Vec(vocab, dim=4)
        assert model.embedding_matrix().shape == (4, 4)


class TestCorpus:
    def test_build_corpus_size_and_tokens(self):
        corpus = build_corpus(20)
        assert len(corpus) == 20
        assert all(isinstance(s, list) and s for s in corpus)
        assert all(t == t.lower() for s in corpus for t in s)
