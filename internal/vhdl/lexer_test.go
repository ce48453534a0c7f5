package vhdl

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// tok is a compact expected token for table-driven lexer tests.
func tok(kind TokKind, text string, line, col int) Token {
	return Token{Kind: kind, Text: text, Pos: Pos{Line: line, Col: col}}
}

func assertTokens(t *testing.T, src string, want []Token) {
	t.Helper()
	got := Tokens(src)
	if len(got) != len(want) {
		t.Fatalf("lex %q: %d tokens %v, want %d %v", src, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lex %q: token %d = %+v, want %+v", src, i, got[i], want[i])
		}
	}
}

func TestLexBasics(t *testing.T) {
	assertTokens(t, "Entity E is\n  port (A : in BIT);", []Token{
		tok(TokKeyword, "entity", 1, 1), tok(TokIdent, "e", 1, 8), tok(TokKeyword, "is", 1, 10),
		tok(TokKeyword, "port", 2, 3), tok(TokOp, "(", 2, 8), tok(TokIdent, "a", 2, 9),
		tok(TokOp, ":", 2, 11), tok(TokKeyword, "in", 2, 13), tok(TokIdent, "bit", 2, 16),
		tok(TokOp, ")", 2, 19), tok(TokOp, ";", 2, 20), tok(TokEOF, "", 2, 21),
	})
}

// TestLexOperatorAtEndOfInput lexes every multi-rune operator, and its
// one-rune prefix, as the last runes of the input, so the operator
// window is clipped by the end of the source. Every prefix of a
// multi-rune operator is itself an operator.
func TestLexOperatorAtEndOfInput(t *testing.T) {
	for _, op := range vhdlOps {
		if len(op) < 2 {
			continue
		}
		for k := 1; k <= len(op); k++ {
			src := "x" + op[:k]
			assertTokens(t, src, []Token{
				tok(TokIdent, "x", 1, 1),
				tok(TokOp, op[:k], 1, 2),
				tok(TokEOF, "", 1, 2+k),
			})
		}
	}
}

func TestLexLongestOperatorWins(t *testing.T) {
	assertTokens(t, "a***b", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokOp, "**", 1, 2), tok(TokOp, "*", 1, 4), tok(TokIdent, "b", 1, 5), tok(TokEOF, "", 1, 6),
	})
	assertTokens(t, "a<==>b", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokOp, "<=", 1, 2), tok(TokOp, "=>", 1, 4), tok(TokIdent, "b", 1, 6), tok(TokEOF, "", 1, 7),
	})
	assertTokens(t, "s:=\n x/=y", []Token{
		tok(TokIdent, "s", 1, 1), tok(TokOp, ":=", 1, 2),
		tok(TokIdent, "x", 2, 2), tok(TokOp, "/=", 2, 3), tok(TokIdent, "y", 2, 5), tok(TokEOF, "", 2, 6),
	})
}

func TestLexOperatorBeforeNonASCII(t *testing.T) {
	// A letter after the operator starts an identifier, lower-cased
	// like any other; any other non-ASCII rune is a one-rune TokError.
	// Columns count runes.
	assertTokens(t, "a<=Éx", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokOp, "<=", 1, 2), tok(TokIdent, "éx", 1, 4), tok(TokEOF, "", 1, 6),
	})
	assertTokens(t, "=>€;", []Token{
		tok(TokOp, "=>", 1, 1), tok(TokError, "€", 1, 3), tok(TokOp, ";", 1, 4), tok(TokEOF, "", 1, 5),
	})
	assertTokens(t, "&·", []Token{
		tok(TokOp, "&", 1, 1), tok(TokError, "·", 1, 2), tok(TokEOF, "", 1, 3),
	})
}

func TestLexUnknownRune(t *testing.T) {
	assertTokens(t, "a ! b", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokError, "!", 1, 3), tok(TokIdent, "b", 1, 5), tok(TokEOF, "", 1, 6),
	})
	assertTokens(t, "§", []Token{
		tok(TokError, "§", 1, 1), tok(TokEOF, "", 1, 2),
	})
}

// operatorDenseArchitecture renders an architecture of n assignment
// lines packed with operators, so that a per-operator cost which grows
// with the remaining source shows up as superlinear growth in n.
func operatorDenseArchitecture(n int) string {
	var sb strings.Builder
	sb.WriteString("architecture dense of e is\nbegin\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  y%d <= (a + b) * (c - d) & e when (a /= b) and (c >= d) and (e <= f) else x\"%02X\" & (2 ** %d);\n", i, i%256, i%8)
	}
	sb.WriteString("end architecture;\n")
	return sb.String()
}

// lexBytes returns the bytes allocated by one lex of src.
func lexBytes(src string) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Tokens(src)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// lexTime returns the shortest of a few lexes of src, timed with the
// collector paused so that heap sizing cannot scale the two inputs of
// the scaling test differently.
func lexTime(src string) time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var best time.Duration
	for i := 0; i < 5; i++ {
		runtime.GC()
		start := time.Now()
		Tokens(src)
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// TestLexLinearScaling pins that lexing is linear in the input: four
// times the lines must cost under 6x the bytes (the hard gate; byte
// counts are deterministic) and under 10x the wall time (lenient, so
// host noise cannot flake it). A quadratic lexer scores ~16x.
func TestLexLinearScaling(t *testing.T) {
	const n = 250
	small, large := operatorDenseArchitecture(n), operatorDenseArchitecture(4*n)
	smallB, largeB := lexBytes(small), lexBytes(large)
	byteRatio := float64(largeB) / float64(smallB)
	if byteRatio >= 6 {
		// Timing is skipped: with the collector paused, a superlinear
		// lexer would allocate without bound.
		t.Fatalf("bytes allocated grew %.2fx (%d -> %d) for 4x the input, want < 6x (lexing is superlinear)",
			byteRatio, smallB, largeB)
	}
	smallT, largeT := lexTime(small), lexTime(large)
	timeRatio := float64(largeT) / float64(smallT)
	t.Logf("%d -> %d lines: bytes %d -> %d (%.2fx), time %v -> %v (%.2fx)",
		n, 4*n, smallB, largeB, byteRatio, smallT, largeT, timeRatio)
	if timeRatio >= 10 {
		t.Errorf("lex time grew %.2fx for 4x the input, want < 10x (lexing is superlinear)", timeRatio)
	}
}
