"""Vocabulary with PAD/UNK handling and padded encoding."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.autograd import get_default_dtype
from repro.text.tokenizer import tokenize

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class Vocabulary:
    """Bidirectional token/id mapping.

    Index 0 is PAD and index 1 is UNK, mirroring the paper's handling of
    padded queries and out-of-embedding tokens.
    """

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: Dict[str, int] = {PAD_TOKEN: 0, UNK_TOKEN: 1}
        self._id_to_token: List[str] = [PAD_TOKEN, UNK_TOKEN]
        for token in tokens:
            self.add(token)

    @classmethod
    def from_corpus(cls, sentences: Iterable[Sequence[str]]) -> "Vocabulary":
        """Build a vocabulary from tokenised sentences (sorted for determinism)."""
        seen = set()
        for sentence in sentences:
            seen.update(sentence)
        return cls(sorted(seen))

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def add(self, token: str) -> int:
        """Insert a token if new; return its id."""
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self._token_to_id[token]

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, self.unk_id)

    def id_to_token(self, index: int) -> str:
        return self._id_to_token[index]

    def encode(self, text_or_tokens, max_length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Encode a query to ``(ids, mask)`` padded/truncated to ``max_length``.

        Accepts either a raw string (tokenised here) or a token list.
        ``mask`` is 1.0 on real tokens and 0.0 on padding.
        """
        tokens = tokenize(text_or_tokens) if isinstance(text_or_tokens, str) else list(text_or_tokens)
        tokens = tokens[:max_length]
        ids = np.full(max_length, self.pad_id, dtype=np.int64)
        mask = np.zeros(max_length, dtype=get_default_dtype())
        for i, token in enumerate(tokens):
            ids[i] = self.token_to_id(token)
            mask[i] = 1.0
        return ids, mask

    def decode(self, ids: Sequence[int]) -> List[str]:
        """Map ids back to tokens, dropping padding."""
        return [self._id_to_token[i] for i in ids if i != self.pad_id]
