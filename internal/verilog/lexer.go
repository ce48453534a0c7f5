package verilog

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns Verilog source text into tokens. It never fails hard:
// malformed input yields TokError tokens so the parser can report
// compiler-style diagnostics with positions.
type Lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: []rune(src), line: 1, col: 1}
}

// runesPerToken is a low estimate of the mean runes per token of RTL
// source (the bench golden designs and testbenches average about 5).
const runesPerToken = 4

// Tokens lexes the entire input, always ending with a TokEOF token.
func Tokens(src string) []Token {
	lx := NewLexer(src)
	// Sized for one token per runesPerToken runes, so a typical source
	// fits without growing, and doubled when it does not: append alone
	// grows a large slice by a quarter at a time, allocating several
	// times the final size.
	out := make([]Token, 0, len(lx.src)/runesPerToken+1)
	for {
		t := lx.Next()
		if len(out) == cap(out) {
			out = append(make([]Token, 0, 2*cap(out)), out...)
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out
		}
	}
}

func (lx *Lexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(n int) rune {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+n]
}

func (lx *Lexer) advance() rune {
	r := lx.src[lx.pos]
	lx.pos++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *Lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

// skipSpaceAndComments consumes whitespace, // and /* */ comments, and
// compiler directives (`timescale etc., treated as line comments).
func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.advance()
		case r == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case r == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		case r == '`':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

// operators lists the operators and punctuation, longest first, so the
// first match at the cursor is the longest one.
var operators = []string{
	"<<<", ">>>", "===", "!==",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~^", "^~", "~&", "~|", "**",
	"+", "-", "*", "/", "%", "!", "~", "&", "|", "^", "<", ">", "=",
	"(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "@", "#", ".",
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	start := lx.here()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}
	}
	r := lx.peek()
	switch {
	case r == '"':
		return lx.lexString(start)
	case r == '$':
		return lx.lexSysName(start)
	case unicode.IsLetter(r) || r == '_' || r == '\\':
		return lx.lexIdent(start)
	case unicode.IsDigit(r) || r == '\'':
		return lx.lexNumber(start)
	}
	// Operators and punctuation.
	if op := matchOp(lx.src[lx.pos:min(lx.pos+maxOpLen, len(lx.src))]); op != "" {
		for range op {
			lx.advance()
		}
		return Token{Kind: TokOp, Text: op, Pos: start}
	}
	lx.advance()
	return Token{Kind: TokError, Text: string(r), Pos: start}
}

// maxOpLen is the rune length of the longest operator ("<<<", "===").
// Next matches against a window this wide, so each operator token costs
// O(1) whatever the length of the remaining source.
const maxOpLen = 3

// opsByFirst indexes operators by their first byte, longest first.
var opsByFirst = func() (t [128][]string) {
	for _, op := range operators {
		t[op[0]] = append(t[op[0]], op)
	}
	return t
}()

// matchOp returns the longest operator that is a prefix of window, or
// "" if none is.
func matchOp(window []rune) string {
	if uint32(window[0]) >= utf8.RuneSelf {
		return ""
	}
next:
	for _, op := range opsByFirst[window[0]] {
		if len(op) > len(window) {
			continue
		}
		for i := 0; i < len(op); i++ {
			if window[i] != rune(op[i]) {
				continue next
			}
		}
		return op
	}
	return ""
}

func (lx *Lexer) lexString(start Pos) Token {
	lx.advance() // opening quote
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if r == '"' {
			lx.advance()
			return Token{Kind: TokString, Text: sb.String(), Pos: start}
		}
		if r == '\n' {
			break
		}
		if r == '\\' && lx.peekAt(1) != 0 {
			lx.advance()
			esc := lx.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteRune(esc)
			}
			continue
		}
		sb.WriteRune(lx.advance())
	}
	return Token{Kind: TokError, Text: "unterminated string", Pos: start}
}

func (lx *Lexer) lexSysName(start Pos) Token {
	from := lx.pos
	lx.advance() // $
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			lx.advance()
		} else {
			break
		}
	}
	if lx.pos-from == 1 {
		return Token{Kind: TokError, Text: "$", Pos: start}
	}
	return Token{Kind: TokSysName, Text: string(lx.src[from:lx.pos]), Pos: start}
}

func (lx *Lexer) lexIdent(start Pos) Token {
	if lx.peek() == '\\' { // escaped identifier: up to whitespace
		lx.advance()
		from := lx.pos
		for lx.pos < len(lx.src) && !unicode.IsSpace(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: TokIdent, Text: string(lx.src[from:lx.pos]), Pos: start}
	}
	from := lx.pos
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' {
			lx.advance()
		} else {
			break
		}
	}
	text := string(lx.src[from:lx.pos])
	if IsKeyword(text) {
		return Token{Kind: TokKeyword, Text: text, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

// lexNumber consumes integers, sized literals (8'hFF), and base-only
// literals ('d3). A size followed by ' merges into one TokNumber.
func (lx *Lexer) lexNumber(start Pos) Token {
	var sb strings.Builder
	// Leading decimal digits (size or plain value).
	for lx.pos < len(lx.src) && (unicode.IsDigit(lx.peek()) || lx.peek() == '_') {
		sb.WriteRune(lx.advance())
	}
	// Skip whitespace between size and ' (legal in Verilog).
	save := lx.pos
	saveLine, saveCol := lx.line, lx.col
	for lx.pos < len(lx.src) && (lx.peek() == ' ' || lx.peek() == '\t') {
		lx.advance()
	}
	if lx.peek() == '\'' {
		sb.WriteRune(lx.advance()) // '
		// Optional signed marker.
		if lx.peek() == 's' || lx.peek() == 'S' {
			sb.WriteRune(lx.advance())
		}
		// Base char.
		if isBaseChar(lx.peek()) {
			sb.WriteRune(lx.advance())
			for lx.pos < len(lx.src) && isNumDigit(lx.peek()) {
				sb.WriteRune(lx.advance())
			}
			return Token{Kind: TokNumber, Text: sb.String(), Pos: start}
		}
		return Token{Kind: TokError, Text: sb.String(), Pos: start}
	}
	// No tick: restore and emit plain decimal (possibly real -> truncate).
	lx.pos, lx.line, lx.col = save, saveLine, saveCol
	if sb.Len() == 0 {
		lx.advance()
		return Token{Kind: TokError, Text: "'", Pos: start}
	}
	return Token{Kind: TokNumber, Text: sb.String(), Pos: start}
}

func isBaseChar(r rune) bool {
	switch r {
	case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
		return true
	}
	return false
}

func isNumDigit(r rune) bool {
	return unicode.IsDigit(r) || r == '_' || r == '?' ||
		(r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F') ||
		r == 'x' || r == 'X' || r == 'z' || r == 'Z'
}
