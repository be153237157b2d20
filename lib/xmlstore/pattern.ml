type axis = Child | Descendant
type test = Wild | Name of string

type fnode = { ftest : test; fedges : (axis * int) list }
type step = { saxis : axis; stest : test; sedges : (axis * int) list }

type t = { fnodes : fnode array; steps : step array }
