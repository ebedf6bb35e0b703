// Package shapes declares the methods the guard's cases are about.
package shapes

// Circle is called by name and through an interface.
type Circle struct{ R int }

// Name is called by name.
func (Circle) Name() string { return "circle" }

// Area satisfies the facade's shape interface.
func (c Circle) Area() int { return 3 * c.R * c.R }

// Square is used, but its method is not.
type Square struct{}

// Name is dead: only Circle.Name is called.
func (Square) Name() string { return "square" }

// Box is aliased by the facade.
type Box struct{}

// Open has no caller but is public API.
func (Box) Open() {}
