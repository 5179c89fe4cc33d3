// Package fscript is a small server-side template language standing in
// for the PHP interpreter behind the paper's web server (§4.2). A page is
// literal HTML with embedded <?fs ... ?> script blocks; scripts have
// integer and string variables, arithmetic, conditionals, bounded loops,
// and echo. Like the PHP layer in the paper, its role in the benchmark is
// to burn per-request CPU inside the server's request path.
//
// Example:
//
//	<html><?fs
//	  total = 0;
//	  for i = 1 to n { total = total + i*i; }
//	  echo "sum: "; echo total;
//	?></html>
//
// Pages execute two ways. The interpreter below walks the AST — the
// fallback that handles any script. Known templates additionally carry a
// CompiledPage (see RegisterCompiled and the fscript/compile package):
// straight-line Go generated from the same AST, with loops as native
// for loops over int64 locals and echo as appends into a caller-supplied
// []byte — byte-for-byte identical output at a fraction of the cost.
package fscript

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MaxSteps bounds script execution; exceeding it aborts the page (a
// server must not let one request loop forever). Env.StepLimit can
// tighten it per execution.
const MaxSteps = 10_000_000

// Sentinel errors shared by the interpreter and compiled pages, so the
// two paths fail byte-identically.
var (
	// ErrStepLimit aborts a script that exceeds its step budget.
	ErrStepLimit = errors.New("fscript: step limit exceeded")
	// ErrDivZero aborts integer division by zero.
	ErrDivZero = errors.New("fscript: division by zero")
	// ErrModZero aborts modulo by zero.
	ErrModZero = errors.New("fscript: modulo by zero")
)

// Value is an FScript value: int64 or string.
type Value struct {
	Str   string
	Int   int64
	IsStr bool
}

// IntVal wraps an integer.
func IntVal(v int64) Value { return Value{Int: v} }

// StrVal wraps a string.
func StrVal(s string) Value { return Value{Str: s, IsStr: true} }

func (v Value) text() string {
	if v.IsStr {
		return v.Str
	}
	return strconv.FormatInt(v.Int, 10)
}

// appendText appends the value's rendered form without allocating (the
// int case is strconv.AppendInt straight into the output buffer).
func (v Value) appendText(b []byte) []byte {
	if v.IsStr {
		return append(b, v.Str...)
	}
	return strconv.AppendInt(b, v.Int, 10)
}

func (v Value) truthy() bool {
	if v.IsStr {
		return v.Str != ""
	}
	return v.Int != 0
}

// Page is a parsed template ready for repeated execution.
type Page struct {
	segments []Segment
}

// Segment is one parsed template piece: literal HTML (Script nil) or a
// script block. Exported read-only for the compiler backend
// (fscript/compile); mutating a Page's segments after Parse is not
// supported.
type Segment struct {
	Literal string // emitted verbatim when Script is nil
	Script  []Stmt // parsed block
}

// Segments exposes the parsed template for the compiler backend.
func (p *Page) Segments() []Segment { return p.segments }

// Parse splits the template into literal and script segments and parses
// every script block.
func Parse(src string) (*Page, error) {
	p := &Page{}
	for {
		open := strings.Index(src, "<?fs")
		if open < 0 {
			if src != "" {
				p.segments = append(p.segments, Segment{Literal: src})
			}
			return p, nil
		}
		if open > 0 {
			p.segments = append(p.segments, Segment{Literal: src[:open]})
		}
		rest := src[open+4:]
		close := strings.Index(rest, "?>")
		if close < 0 {
			return nil, errors.New("fscript: unterminated <?fs block")
		}
		block := rest[:close]
		stmts, err := parseScript(block)
		if err != nil {
			return nil, err
		}
		p.segments = append(p.segments, Segment{Script: stmts})
		src = rest[close+2:]
	}
}

// Env carries a page execution's variables in two parallel slices with
// linear-scan lookup — pages have a handful of variables, so the scan
// beats a map and, reused across requests (Reset keeps capacity), costs
// zero allocations where the old map[string]Value cost one per request.
// The zero value is ready to use; it is not safe for concurrent use.
type Env struct {
	// StepLimit, when > 0, overrides MaxSteps for this execution (the
	// fuzz harness runs hostile scripts under a small budget).
	StepLimit int64

	names []string
	vals  []Value
	out   []byte
	steps int64
	limit int64
}

// Reset clears the variables, keeping their storage for reuse.
func (e *Env) Reset() {
	e.names = e.names[:0]
	e.vals = e.vals[:0]
}

// Set binds a variable, replacing any existing binding.
func (e *Env) Set(name string, v Value) {
	for i, n := range e.names {
		if n == name {
			e.vals[i] = v
			return
		}
	}
	e.names = append(e.names, name)
	e.vals = append(e.vals, v)
}

// SetInt binds an integer variable.
func (e *Env) SetInt(name string, v int64) { e.Set(name, IntVal(v)) }

// Get looks a variable up.
func (e *Env) Get(name string) (Value, bool) {
	for i, n := range e.names {
		if n == name {
			return e.vals[i], true
		}
	}
	return Value{}, false
}

// GetInt looks an integer variable up; ok is false when the variable is
// missing or holds a string. Compiled pages use it to validate their
// inputs before committing to the native path.
func (e *Env) GetInt(name string) (int64, bool) {
	v, ok := e.Get(name)
	if !ok || v.IsStr {
		return 0, false
	}
	return v.Int, true
}

// Limit resolves the effective step budget for one execution.
func (e *Env) Limit() int64 {
	if e.StepLimit > 0 {
		return e.StepLimit
	}
	return MaxSteps
}

// Execute runs the page with the given variables, returning the rendered
// output. It is the map-keyed convenience wrapper around ExecuteInto.
func (p *Page) Execute(vars map[string]Value) (string, error) {
	var env Env
	for k, v := range vars {
		env.Set(k, v)
	}
	out, err := p.ExecuteInto(&env, nil)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// ExecuteInto interprets the page with env's variables, appending the
// rendered output to out and returning the extended slice. The env is
// mutated (scripts assign variables into it); Reset it before reuse. On
// error the returned slice's extra content is meaningless and must be
// discarded.
func (p *Page) ExecuteInto(env *Env, out []byte) ([]byte, error) {
	env.out = out
	env.steps = 0
	env.limit = env.Limit()
	for i := range p.segments {
		seg := &p.segments[i]
		if seg.Script == nil {
			env.out = append(env.out, seg.Literal...)
			continue
		}
		if err := execBlock(env, seg.Script); err != nil {
			out, env.out = env.out, nil
			return out, err
		}
	}
	out, env.out = env.out, nil
	return out, nil
}

func (e *Env) step() error {
	e.steps++
	if e.steps > e.limit {
		return ErrStepLimit
	}
	return nil
}

// --- statements -----------------------------------------------------------

// Stmt is one parsed statement. The concrete types (AssignStmt, EchoStmt,
// ForStmt, IfStmt) are exported for the compiler backend; execution stays
// internal to the interpreter.
type Stmt interface{ exec(e *Env) error }

// AssignStmt is `name = expr;`.
type AssignStmt struct {
	Name string
	X    Expr
}

func (s *AssignStmt) exec(e *Env) error {
	if err := e.step(); err != nil {
		return err
	}
	v, err := s.X.eval(e)
	if err != nil {
		return err
	}
	e.Set(s.Name, v)
	return nil
}

// EchoStmt is `echo expr;`.
type EchoStmt struct{ X Expr }

func (s *EchoStmt) exec(e *Env) error {
	if err := e.step(); err != nil {
		return err
	}
	v, err := s.X.eval(e)
	if err != nil {
		return err
	}
	e.out = v.appendText(e.out)
	return nil
}

// ForStmt is `for name = from to to { body }` (inclusive integer bounds).
type ForStmt struct {
	Name     string
	From, To Expr
	Body     []Stmt
}

func (s *ForStmt) exec(e *Env) error {
	from, err := s.From.eval(e)
	if err != nil {
		return err
	}
	to, err := s.To.eval(e)
	if err != nil {
		return err
	}
	if from.IsStr || to.IsStr {
		return errors.New("fscript: for bounds must be integers")
	}
	for i := from.Int; i <= to.Int; i++ {
		if err := e.step(); err != nil {
			return err
		}
		e.Set(s.Name, IntVal(i))
		if err := execBlock(e, s.Body); err != nil {
			return err
		}
	}
	return nil
}

// IfStmt is `if cond { then } else { else }`.
type IfStmt struct {
	Cond       Expr
	Then, Else []Stmt
}

func (s *IfStmt) exec(e *Env) error {
	if err := e.step(); err != nil {
		return err
	}
	c, err := s.Cond.eval(e)
	if err != nil {
		return err
	}
	if c.truthy() {
		return execBlock(e, s.Then)
	}
	return execBlock(e, s.Else)
}

func execBlock(e *Env, stmts []Stmt) error {
	for _, s := range stmts {
		if err := s.exec(e); err != nil {
			return err
		}
	}
	return nil
}

// --- expressions -----------------------------------------------------------

// Expr is one parsed expression. The concrete types (Lit, Var, Bin) are
// exported for the compiler backend.
type Expr interface{ eval(e *Env) (Value, error) }

// Lit is a literal value.
type Lit struct{ V Value }

func (x *Lit) eval(*Env) (Value, error) { return x.V, nil }

// Var is a variable reference.
type Var struct{ Name string }

func (x *Var) eval(e *Env) (Value, error) {
	v, ok := e.Get(x.Name)
	if !ok {
		return Value{}, fmt.Errorf("fscript: undefined variable %q", x.Name)
	}
	return v, nil
}

// Bin is a binary operation.
type Bin struct {
	Op   string
	L, R Expr
}

func (x *Bin) eval(e *Env) (Value, error) {
	if err := e.step(); err != nil {
		return Value{}, err
	}
	l, err := x.L.eval(e)
	if err != nil {
		return Value{}, err
	}
	r, err := x.R.eval(e)
	if err != nil {
		return Value{}, err
	}
	// String concatenation and comparison.
	if l.IsStr || r.IsStr {
		switch x.Op {
		case "+":
			return StrVal(l.text() + r.text()), nil
		case "==":
			return boolVal(l.text() == r.text()), nil
		case "!=":
			return boolVal(l.text() != r.text()), nil
		default:
			return Value{}, fmt.Errorf("fscript: operator %q not defined on strings", x.Op)
		}
	}
	switch x.Op {
	case "+":
		return IntVal(l.Int + r.Int), nil
	case "-":
		return IntVal(l.Int - r.Int), nil
	case "*":
		return IntVal(l.Int * r.Int), nil
	case "/":
		if r.Int == 0 {
			return Value{}, ErrDivZero
		}
		return IntVal(l.Int / r.Int), nil
	case "%":
		if r.Int == 0 {
			return Value{}, ErrModZero
		}
		return IntVal(l.Int % r.Int), nil
	case "<":
		return boolVal(l.Int < r.Int), nil
	case ">":
		return boolVal(l.Int > r.Int), nil
	case "<=":
		return boolVal(l.Int <= r.Int), nil
	case ">=":
		return boolVal(l.Int >= r.Int), nil
	case "==":
		return boolVal(l.Int == r.Int), nil
	case "!=":
		return boolVal(l.Int != r.Int), nil
	}
	return Value{}, fmt.Errorf("fscript: unknown operator %q", x.Op)
}

// Btoi is the compiled form of a comparison result: FScript comparisons
// yield the integers 1 and 0, so generated code converts Go booleans
// with it when a comparison nests inside arithmetic.
func Btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// --- script parser ----------------------------------------------------------

type parser struct {
	toks []stok
	pos  int
}

type stok struct {
	kind string // "ident", "int", "str", or the punctuation itself
	lit  string
}

func parseScript(src string) ([]Stmt, error) {
	toks, err := scan(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for !p.at("") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func scan(src string) ([]stok, error) {
	var toks []stok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, errors.New("fscript: unterminated string literal")
			}
			toks = append(toks, stok{kind: "str", lit: src[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, stok{kind: "int", lit: src[i:j]})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			toks = append(toks, stok{kind: "ident", lit: src[i:j]})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=":
				toks = append(toks, stok{kind: two, lit: two})
				i += 2
				continue
			}
			switch c {
			case '=', ';', '{', '}', '(', ')', '+', '-', '*', '/', '%', '<', '>':
				toks = append(toks, stok{kind: string(c), lit: string(c)})
				i++
			default:
				return nil, fmt.Errorf("fscript: unexpected character %q", c)
			}
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentByte(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func (p *parser) at(kind string) bool {
	if p.pos >= len(p.toks) {
		return kind == ""
	}
	return p.toks[p.pos].kind == kind
}

func (p *parser) atIdent(lit string) bool {
	return p.pos < len(p.toks) && p.toks[p.pos].kind == "ident" && p.toks[p.pos].lit == lit
}

func (p *parser) take() stok {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) expect(kind string) (stok, error) {
	if !p.at(kind) {
		got := "end of script"
		if p.pos < len(p.toks) {
			got = fmt.Sprintf("%q", p.toks[p.pos].lit)
		}
		return stok{}, fmt.Errorf("fscript: expected %q, found %s", kind, got)
	}
	return p.take(), nil
}

func (p *parser) stmt() (Stmt, error) {
	switch {
	case p.atIdent("echo"):
		p.take()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &EchoStmt{X: e}, nil

	case p.atIdent("for"):
		p.take()
		name, err := p.expect("ident")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("="); err != nil {
			return nil, err
		}
		from, err := p.expr()
		if err != nil {
			return nil, err
		}
		if !p.atIdent("to") {
			return nil, errors.New("fscript: expected 'to' in for statement")
		}
		p.take()
		to, err := p.expr()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Name: name.lit, From: from, To: to, Body: body}, nil

	case p.atIdent("if"):
		p.take()
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.atIdent("else") {
			p.take()
			els, err = p.block()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els}, nil

	case p.at("ident"):
		name := p.take()
		if _, err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &AssignStmt{Name: name.lit, X: e}, nil
	}
	return nil, errors.New("fscript: expected statement")
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at("}") {
		if p.at("") {
			return nil, errors.New("fscript: unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.take()
	return stmts, nil
}

// expr parses comparison-level precedence.
func (p *parser) expr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		op := ""
		for _, k := range []string{"==", "!=", "<=", ">=", "<", ">"} {
			if p.at(k) {
				op = k
				break
			}
		}
		if op == "" {
			return l, nil
		}
		p.take()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at("+") || p.at("-") {
		op := p.take().kind
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.at("*") || p.at("/") || p.at("%") {
		op := p.take().kind
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	switch {
	case p.at("int"):
		t := p.take()
		v, err := strconv.ParseInt(t.lit, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fscript: bad integer %q", t.lit)
		}
		return &Lit{V: IntVal(v)}, nil
	case p.at("str"):
		return &Lit{V: StrVal(p.take().lit)}, nil
	case p.at("ident"):
		return &Var{Name: p.take().lit}, nil
	case p.at("("):
		p.take()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errors.New("fscript: expected expression")
}
