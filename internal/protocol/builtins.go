package protocol

import (
	"fmt"

	"asynccycle/internal/check"
	"asynccycle/internal/contract"
	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
)

// The builtin protocols register in one fixed order — it is the order the
// -list tables print and tests pin, independent of source-file names.
func init() {
	registerCore()
	registerDP1()
	registerMIS()
	registerRenaming()
	registerSSB()
	registerDecoupled()
	registerLocale()
	registerAgree()
	registerSSUni()
}

// bareContract is the contract of a protocol that predates labeled
// verdicts: properties checked at termination whose violations and
// verdict lines carry the property text alone, keeping recorded outputs
// byte-identical.
func bareContract(name string, kind contract.LivenessKind, props ...contract.Property) *contract.Terminating {
	return &contract.Terminating{Name: name, Props: props, Kind: kind, Bare: true}
}

// properColoring is the coloring protocols' shared edge property.
var properColoring = contract.Property{Name: "proper coloring", Check: check.ProperColoring}

// palette is the property that terminated processes output colors in
// {0..k-1}.
func palette(k int) contract.Property {
	return contract.Property{
		Name:  fmt.Sprintf("palette {0..%d}", k-1),
		Check: func(_ graph.Graph, r sim.Result) error { return check.PaletteRange(r, k) },
	}
}
