package data

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrVocab is returned (wrapped) when text does not fit a tokenizer's
// vocabulary.
var ErrVocab = errors.New("data: vocabulary error")

// CharTokenizer is a character-level tokenizer over a fixed alphabet
// learned from a corpus, the standard choice for tiny-shakespeare
// scale experiments.
type CharTokenizer struct {
	runes  []rune
	lookup map[rune]int
}

// NewCharTokenizer builds the alphabet from the corpus. maxVocab
// bounds the alphabet (0 means unlimited); corpora exceeding it are
// rejected rather than silently truncated.
func NewCharTokenizer(corpus string, maxVocab int) (*CharTokenizer, error) {
	seen := make(map[rune]bool)
	for _, r := range corpus {
		seen[r] = true
	}
	if maxVocab > 0 && len(seen) > maxVocab {
		return nil, fmt.Errorf("%w: corpus has %d distinct characters, limit %d",
			ErrVocab, len(seen), maxVocab)
	}
	runes := make([]rune, 0, len(seen))
	for r := range seen {
		runes = append(runes, r)
	}
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	lookup := make(map[rune]int, len(runes))
	for i, r := range runes {
		lookup[r] = i
	}
	return &CharTokenizer{runes: runes, lookup: lookup}, nil
}

// VocabSize returns the alphabet size.
func (t *CharTokenizer) VocabSize() int { return len(t.runes) }

// Encode maps each character to its id.
func (t *CharTokenizer) Encode(text string) ([]int, error) {
	ids := make([]int, 0, len(text))
	for _, r := range text {
		id, ok := t.lookup[r]
		if !ok {
			return nil, fmt.Errorf("%w: character %q not in vocabulary", ErrVocab, r)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Decode maps ids back to characters.
func (t *CharTokenizer) Decode(ids []int) (string, error) {
	var b strings.Builder
	for _, id := range ids {
		if id < 0 || id >= len(t.runes) {
			return "", fmt.Errorf("%w: id %d out of range", ErrVocab, id)
		}
		b.WriteRune(t.runes[id])
	}
	return b.String(), nil
}

// WordTokenizer is a whitespace-word-level tokenizer with an <unk>
// fallback, in the spirit of wikitext preprocessing.
type WordTokenizer struct {
	lookup map[string]int
	unk    int
}

// NewWordTokenizer builds a vocabulary of the maxVocab-1 most frequent
// words plus <unk>.
func NewWordTokenizer(corpus string, maxVocab int) (*WordTokenizer, error) {
	if maxVocab < 2 {
		return nil, fmt.Errorf("%w: need vocab of at least 2, got %d", ErrVocab, maxVocab)
	}
	counts := make(map[string]int)
	for _, w := range strings.Fields(corpus) {
		counts[w]++
	}
	type wc struct {
		word  string
		count int
	}
	all := make([]wc, 0, len(counts))
	for w, c := range counts {
		all = append(all, wc{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].word < all[j].word
	})
	if len(all) > maxVocab-1 {
		all = all[:maxVocab-1]
	}
	t := &WordTokenizer{lookup: make(map[string]int, len(all)+1)}
	t.lookup["<unk>"] = 0
	for i, e := range all {
		t.lookup[e.word] = i + 1
	}
	return t, nil
}

// Encode maps words to ids, unknown words to <unk>.
func (t *WordTokenizer) Encode(text string) ([]int, error) {
	fields := strings.Fields(text)
	ids := make([]int, len(fields))
	for i, w := range fields {
		id, ok := t.lookup[w]
		if !ok {
			id = t.unk
		}
		ids[i] = id
	}
	return ids, nil
}
