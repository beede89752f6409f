// Package shadow declares its own close, so inside this package the bare
// identifier names an error-returning function, not the builtin.
package shadow

func close(c chan int) error { return nil }

func badShadowed(c chan int) {
	close(c) // want droppederr
}
