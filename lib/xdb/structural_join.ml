type axis = Child | Descendant
