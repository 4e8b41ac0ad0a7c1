package hierlock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// TestLockOrderDocumented is the lock-order gate: every sync.Mutex or
// sync.RWMutex field of Member and lockShard is a row of member.go's
// "Lock order." header, and every row of it names such a field, so no
// mutex is added to the member, or deleted from it, without the order
// saying where it stands.
func TestLockOrderDocumented(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "member.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	// The header's rows: "//<TAB>Type.field   what it guards".
	row := regexp.MustCompile(`^//\t(\w+\.\w+)\s`)
	documented := map[string]bool{}
	for _, cg := range f.Comments {
		if !strings.HasPrefix(cg.Text(), "Lock order.") {
			continue
		}
		for _, c := range cg.List {
			if m := row.FindStringSubmatch(c.Text); m != nil {
				documented[m[1]] = true
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal(`member.go has no "Lock order." header with Type.field rows`)
	}

	declared := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || (ts.Name.Name != "Member" && ts.Name.Name != "lockShard") {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			sel, ok := field.Type.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
				continue
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "sync" {
				continue
			}
			names := field.Names
			if len(names) == 0 { // embedded
				names = []*ast.Ident{sel.Sel}
			}
			for _, name := range names {
				declared[ts.Name.Name+"."+name.Name] = true
			}
		}
		return false
	})
	for _, want := range []string{"Member.mgrMu", "lockShard.mu"} {
		if !declared[want] {
			t.Fatalf("the scan of member.go missed %s: it is broken", want)
		}
	}

	for name := range declared {
		if !documented[name] {
			t.Errorf("mutex %s is not in member.go's lock-order header", name)
		}
	}
	for name := range documented {
		if !declared[name] {
			t.Errorf("member.go's lock-order header names %s, which is no mutex field of Member or lockShard", name)
		}
	}
}
