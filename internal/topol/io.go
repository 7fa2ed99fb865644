package topol

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/vec"
)

// element derives the element symbol from the type name.
func element(typeName string) string {
	if typeName == "" {
		return "X"
	}
	switch typeName[0] {
	case 'C':
		return "C"
	case 'N':
		return "N"
	case 'O':
		return "O"
	case 'H':
		return "H"
	case 'S':
		return "S"
	}
	return "X"
}

// WriteXYZ writes one XYZ-format frame of the given positions with a
// comment line. Positions default to the system's own when pos is nil.
func (s *System) WriteXYZ(w io.Writer, pos []vec.V, comment string) error {
	if pos == nil {
		pos = s.Pos
	}
	if len(pos) != s.N() {
		return fmt.Errorf("topol: %d positions for %d atoms", len(pos), s.N())
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n%s\n", s.N(), comment)
	for i := range pos {
		fmt.Fprintf(bw, "%-2s %14.8f %14.8f %14.8f\n",
			element(s.Types[s.Atoms[i].Type].Name), pos[i].X, pos[i].Y, pos[i].Z)
	}
	return bw.Flush()
}
