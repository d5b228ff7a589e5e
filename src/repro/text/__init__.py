"""Language substrate: tokenisation, vocabulary, embeddings, word2vec.

Replaces the paper's LM-1B-pretrained Word2Vec pipeline: a skip-gram
model with negative sampling is pre-trained on a synthetic referring-
expression corpus and loaded into the query embedding layer, which is
then fine-tuned jointly with the rest of YOLLO.
"""

from repro.text.tokenizer import lex, normalize_query, tokenize
from repro.text.vocab import Vocabulary
from repro.text.position import learned_position_table
from repro.text.word2vec import SkipGramWord2Vec
from repro.text.corpus import build_corpus

__all__ = [
    "tokenize",
    "lex",
    "normalize_query",
    "Vocabulary",
    "learned_position_table",
    "SkipGramWord2Vec",
    "build_corpus",
]
