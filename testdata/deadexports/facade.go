// Package example is the module TestDeadExportsCases checks: Circle.Name
// is called, Square.Name only shares its name, Circle.Area is reached
// through an interface, and Box is aliased.
package example

import "example/internal/shapes"

// Box is part of the facade: its methods are API.
type Box = shapes.Box

type shape interface{ Area() int }

// Describe names a circle and measures its area through shape.
func Describe() (string, int) {
	var s shape = shapes.Circle{R: 2}
	_ = shapes.Square{}
	return shapes.Circle{}.Name(), s.Area()
}
