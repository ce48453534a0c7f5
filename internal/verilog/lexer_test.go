package verilog

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks := Tokens("module foo; endmodule")
	want := []TokKind{TokKeyword, TokIdent, TokOp, TokKeyword, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok %d kind %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"8'hFF":      "8'hFF",
		"4'b10x0":    "4'b10x0",
		"42":         "42",
		"16 'd12":    "16'd12", // space before tick is legal
		"8'b0000_01": "8'b0000_01",
		"'d3":        "'d3",
		"2'b1?":      "2'b1?",
	}
	for src, want := range cases {
		toks := Tokens(src)
		if toks[0].Kind != TokNumber || toks[0].Text != want {
			t.Errorf("lex %q: got %v %q", src, toks[0].Kind, toks[0].Text)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := Tokens("a // line\n /* block\nmore */ b `timescale 1ns/1ps\nc")
	var idents []string
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			idents = append(idents, tk.Text)
		}
	}
	if len(idents) != 3 || idents[0] != "a" || idents[1] != "b" || idents[2] != "c" {
		t.Errorf("idents = %v", idents)
	}
}

func TestLexString(t *testing.T) {
	toks := Tokens(`$display("hi\n%d", x);`)
	if toks[0].Kind != TokSysName || toks[0].Text != "$display" {
		t.Fatalf("sysname: %v", toks[0])
	}
	if toks[2].Kind != TokString || toks[2].Text != "hi\n%d" {
		t.Fatalf("string: %v %q", toks[2].Kind, toks[2].Text)
	}
}

func TestLexOperators(t *testing.T) {
	toks := Tokens("a <= b == c <<< 2 !== d")
	var ops []string
	for _, tk := range toks {
		if tk.Kind == TokOp {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"<=", "==", "<<<", "!=="}
	if len(ops) != len(want) {
		t.Fatalf("ops %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q want %q", i, ops[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := Tokens("a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	toks := Tokens("\"abc\nd")
	if toks[0].Kind != TokError {
		t.Errorf("want TokError, got %v", toks[0])
	}
}

func TestLexAlwaysTerminates(t *testing.T) {
	// Property: lexing arbitrary input terminates with EOF and never
	// produces an empty non-EOF token stream element.
	f := func(s string) bool {
		toks := Tokens(s)
		if len(toks) == 0 {
			return false
		}
		return toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

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

// TestLexOperatorAtEndOfInput lexes every multi-rune operator, and each
// of its shorter prefixes, as the last runes of the input, so the
// operator window is clipped by the end of the source at 1, 2 and 3
// runes. Every prefix of a multi-rune operator is itself an operator.
func TestLexOperatorAtEndOfInput(t *testing.T) {
	for _, op := range operators {
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
	assertTokens(t, "a<<<b", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokOp, "<<<", 1, 2), tok(TokIdent, "b", 1, 5), tok(TokEOF, "", 1, 6),
	})
	assertTokens(t, "<<<<", []Token{
		tok(TokOp, "<<<", 1, 1), tok(TokOp, "<", 1, 4), tok(TokEOF, "", 1, 5),
	})
	assertTokens(t, "a***b", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokOp, "**", 1, 2), tok(TokOp, "*", 1, 4), tok(TokIdent, "b", 1, 5), tok(TokEOF, "", 1, 6),
	})
	assertTokens(t, "\n !===", []Token{
		tok(TokOp, "!==", 2, 2), tok(TokOp, "=", 2, 5), tok(TokEOF, "", 2, 6),
	})
}

func TestLexOperatorBeforeNonASCII(t *testing.T) {
	// A letter after the operator starts an identifier; any other
	// non-ASCII rune is a one-rune TokError. Columns count runes.
	assertTokens(t, "a<=\u00e9", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokOp, "<=", 1, 2), tok(TokIdent, "\u00e9", 1, 4), tok(TokEOF, "", 1, 5),
	})
	assertTokens(t, "<<<\u20ac;", []Token{
		tok(TokOp, "<<<", 1, 1), tok(TokError, "\u20ac", 1, 4), tok(TokOp, ";", 1, 5), tok(TokEOF, "", 1, 6),
	})
	assertTokens(t, "~\u00b7", []Token{
		tok(TokOp, "~", 1, 1), tok(TokError, "\u00b7", 1, 2), tok(TokEOF, "", 1, 3),
	})
}

func TestLexUnknownRune(t *testing.T) {
	assertTokens(t, "a \u00a7 b", []Token{
		tok(TokIdent, "a", 1, 1), tok(TokError, "\u00a7", 1, 3), tok(TokIdent, "b", 1, 5), tok(TokEOF, "", 1, 6),
	})
	assertTokens(t, "\x01", []Token{
		tok(TokError, "\x01", 1, 1), tok(TokEOF, "", 1, 2),
	})
}

// operatorDenseModule renders a module of n assign lines packed with
// operators, so that a per-operator cost which grows with the remaining
// source shows up as superlinear growth in n.
func operatorDenseModule(n int) string {
	var sb strings.Builder
	sb.WriteString("module dense(input [7:0] a, b, output [7:0] y);\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  assign y%d = ((a <<< %d) + (b >>> 1)) * (a ^~ b) - (a === b) ? {a, b} : a !== b && a <= b || ~&a;\n", i, i%8)
	}
	sb.WriteString("endmodule\n")
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
	small, large := operatorDenseModule(n), operatorDenseModule(4*n)
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
