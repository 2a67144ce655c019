package script

import "fmt"

// The helpers below put Go generics behind the paper's genericity
// principle: "a script is as generic as its host programming language
// allows". Data parameters travel as `any` inside the runtime; these
// helpers give enrolling processes and role bodies typed access with
// descriptive errors instead of raw type assertions.

// Arg returns role data parameter i of rc as a T.
func Arg[T any](rc Ctx, i int) (T, error) {
	var zero T
	if i < 0 || i >= rc.NumArgs() {
		return zero, fmt.Errorf("script: role %s has %d args; no arg %d", rc.Role(), rc.NumArgs(), i)
	}
	v, ok := rc.Arg(i).(T)
	if !ok {
		return zero, fmt.Errorf("script: role %s arg %d has type %T, not %T", rc.Role(), i, rc.Arg(i), zero)
	}
	return v, nil
}

// Receive performs rc.Recv(from) and converts the value to T.
func Receive[T any](rc Ctx, from RoleRef) (T, error) { return ReceiveTag[T](rc, from, "") }

// ReceiveTag performs rc.RecvTag(from, tag) and converts the value to T.
func ReceiveTag[T any](rc Ctx, from RoleRef, tag string) (T, error) {
	var zero T
	v, err := rc.RecvTag(from, tag)
	if err != nil {
		return zero, err
	}
	tv, ok := v.(T)
	if !ok {
		sender := from.String()
		if tag != "" {
			sender += " (" + tag + ")"
		}
		return zero, fmt.Errorf("script: %s received %T from %s, want %T", rc.Role(), v, sender, zero)
	}
	return tv, nil
}

// Value returns result (out) parameter i of a completed enrollment as a T.
func Value[T any](res Result, i int) (T, error) {
	var zero T
	if i < 0 || i >= len(res.Values) {
		return zero, fmt.Errorf("script: role %s returned %d values; no value %d", res.Role, len(res.Values), i)
	}
	v, ok := res.Values[i].(T)
	if !ok {
		return zero, fmt.Errorf("script: role %s value %d has type %T, not %T", res.Role, i, res.Values[i], zero)
	}
	return v, nil
}
