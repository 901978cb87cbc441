package data

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestShakespeareCorpus(t *testing.T) {
	s := Shakespeare()
	if len(s) < 1000 {
		t.Fatalf("corpus too small: %d bytes", len(s))
	}
	if !strings.Contains(s, "Citizen") {
		t.Fatal("corpus content unexpected")
	}
}

func TestSyntheticWikitextDeterministic(t *testing.T) {
	a := SyntheticWikitext(42, 100)
	b := SyntheticWikitext(42, 100)
	if a != b {
		t.Fatal("same seed produced different corpora")
	}
	c := SyntheticWikitext(43, 100)
	if a == c {
		t.Fatal("different seeds produced identical corpora")
	}
	if !strings.Contains(a, ". ") {
		t.Fatal("no sentence structure")
	}
	if SyntheticWikitext(0, 10) == "" {
		t.Fatal("zero seed produced nothing")
	}
}

func TestCharTokenizerRoundTrip(t *testing.T) {
	corpus := Shakespeare()
	tok, err := NewCharTokenizer(corpus, 96)
	if err != nil {
		t.Fatal(err)
	}
	if tok.VocabSize() <= 0 || tok.VocabSize() > 96 {
		t.Fatalf("vocab = %d", tok.VocabSize())
	}
	sample := "Speak, speak."
	ids, err := tok.Encode(sample)
	if err != nil {
		t.Fatal(err)
	}
	back, err := tok.Decode(ids)
	if err != nil {
		t.Fatal(err)
	}
	if back != sample {
		t.Fatalf("round trip: %q -> %q", sample, back)
	}
}

func TestCharTokenizerUnknownChar(t *testing.T) {
	tok, err := NewCharTokenizer("abc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tok.Encode("abz"); !errors.Is(err, ErrVocab) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tok.Decode([]int{99}); !errors.Is(err, ErrVocab) {
		t.Fatalf("decode err = %v", err)
	}
}

func TestCharTokenizerVocabLimit(t *testing.T) {
	if _, err := NewCharTokenizer("abcdef", 3); !errors.Is(err, ErrVocab) {
		t.Fatalf("err = %v", err)
	}
}

func TestWordTokenizer(t *testing.T) {
	corpus := "the cat sat on the mat the cat"
	tok, err := NewWordTokenizer(corpus, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The three most frequent words, ties broken alphabetically, take
	// ids 1–3; "on", "sat" and "flew" fall out of the vocabulary to
	// <unk>, id 0.
	ids, err := tok.Encode("the cat mat on sat flew")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 0, 0, 0}; !slices.Equal(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	if _, err := NewWordTokenizer(corpus, 1); err == nil {
		t.Fatal("vocab of 1 accepted")
	}
}

// Property: char tokenizer round-trips any string drawn from its own
// corpus alphabet.
func TestCharTokenizerRoundTripProperty(t *testing.T) {
	corpus := "abcdefgh \n.,!"
	tok, err := NewCharTokenizer(corpus, 0)
	if err != nil {
		t.Fatal(err)
	}
	alphabet := []rune(corpus)
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteRune(alphabet[int(p)%len(alphabet)])
		}
		s := b.String()
		ids, err := tok.Encode(s)
		if err != nil {
			return false
		}
		back, err := tok.Decode(ids)
		return err == nil && back == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoaderBatchGeometry(t *testing.T) {
	tokens := make([]int, 100)
	for i := range tokens {
		tokens[i] = i
	}
	l, err := NewLoader(tokens, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := l.Next()
	if len(ids) != 24 || len(targets) != 24 {
		t.Fatalf("batch sizes: %d, %d", len(ids), len(targets))
	}
	// Targets are inputs shifted by one.
	for i := 0; i < 24; i++ {
		if targets[i] != ids[i]+1 {
			t.Fatalf("target[%d] = %d, id = %d", i, targets[i], ids[i])
		}
	}
	if l.batch != 3 || l.seq != 8 {
		t.Fatal("geometry")
	}
}

func TestLoaderDeterministic(t *testing.T) {
	tokens := make([]int, 50)
	for i := range tokens {
		tokens[i] = i % 7
	}
	l1, _ := NewLoader(tokens, 2, 5, 9)
	l2, _ := NewLoader(tokens, 2, 5, 9)
	a, _ := l1.Next()
	b, _ := l2.Next()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed loaders diverged")
		}
	}
}

func TestLoaderTooShort(t *testing.T) {
	if _, err := NewLoader([]int{1, 2, 3}, 1, 8, 1); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewLoader(make([]int, 100), 0, 8, 1); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func TestPartition(t *testing.T) {
	tokens := make([]int, 103)
	for i := range tokens {
		tokens[i] = i
	}
	shards, err := Partition(tokens, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("shards = %d", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	if total != 103 {
		t.Fatalf("lost tokens: %d", total)
	}
	// Last shard absorbs the remainder.
	if len(shards[3]) != 28 {
		t.Fatalf("last shard = %d", len(shards[3]))
	}
	// Shards are disjoint and contiguous.
	if shards[1][0] != shards[0][len(shards[0])-1]+1 {
		t.Fatal("shards not contiguous")
	}
	if _, err := Partition(tokens, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := Partition([]int{1}, 5); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v", err)
	}
}
